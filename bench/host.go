package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo identifies the machine and the code a record was measured on.
// Numbers are comparable only between records with the same host block.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	GitCommit  string `json:"git_commit"`
	GitDirty   *bool  `json:"git_dirty"` // null: not a git checkout
}

func readHost(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		L2:         cacheSize(2),
		L3:         cacheSize(3),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		GitCommit:  "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			dirty := len(st) > 0
			h.GitDirty = &dirty
		}
	}
	return h
}

// cacheSize reads cpu0's cache of the given level from sysfs.
func cacheSize(level int) string {
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range idx {
		lv, err := os.ReadFile(filepath.Join(dir, "level"))
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(filepath.Join(dir, "size")); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}
