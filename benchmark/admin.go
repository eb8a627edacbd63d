package main

import (
	"bufio"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// adminSample is one scrape of a daemon's /metrics: every sample line by
// its name and label set, exactly as exported.
type adminSample map[string]float64

var adminClient = &http.Client{Timeout: 2 * time.Second}

// scrapeAdmin reads http://addr/metrics. A daemon that cannot be scraped
// yields an empty sample: the counts it feeds are per-layer diagnostics,
// not checks.
func scrapeAdmin(addr string) adminSample {
	s := adminSample{}
	resp, err := adminClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return s
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// scrapeLag is the largest passd_repl_follower_lag_bytes the primary
// reports right now; 0 when it has no followers.
func scrapeLag(addr string) float64 {
	var lag float64
	for k, v := range scrapeAdmin(addr) {
		if strings.HasPrefix(k, "passd_repl_follower_lag_bytes") && v > lag {
			lag = v
		}
	}
	return lag
}

// meanMicros is the mean of a histogram family over the interval between
// two scrapes, in microseconds: Δsum/Δcount. key is the family name with
// its label set, as in `passd_request_seconds` + `{verb="write"}`.
func meanMicros(before, after adminSample, family, labels string) float64 {
	n := after[family+"_count"+labels] - before[family+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return (after[family+"_sum"+labels] - before[family+"_sum"+labels]) / n * 1e6
}

// selfCPU is the generator's own user+system CPU so far, in seconds.
func selfCPU() float64 {
	b, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0
	}
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / clockTicksPerSecond
}
