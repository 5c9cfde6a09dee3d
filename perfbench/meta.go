package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// hostMeta is recorded with every result so numbers are only compared
// across runs of the same host and configuration.
type hostMeta struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPUModel   string         `json:"cpu_model"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Clients    int            `json:"clients"`
	Trace      bool           `json:"trace"`
	Dataset    map[string]int `json:"dataset"`
	Serve      any            `json:"serve_config"`
	Backend    any            `json:"backend_config"`
}

func newHostMeta() hostMeta {
	return hostMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or reports
// "unknown" where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
