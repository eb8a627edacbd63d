package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"passv2/internal/passd"
)

// builtBins holds the daemon and auditor binaries the benchmark drives.
type builtBins struct {
	passd, passverify string
	buildSeconds      float64
}

// buildBins compiles cmd/passd and cmd/passverify into dir. The go
// command finds the repository through this module's replace directive,
// so it must run from the benchmark's own directory.
func buildBins(moduleDir, dir string) (*builtBins, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	b := &builtBins{passd: filepath.Join(dir, "passd"), passverify: filepath.Join(dir, "passverify")}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "passv2/cmd/passd", "passv2/cmd/passverify")
	cmd.Dir = moduleDir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, msg)
	}
	b.buildSeconds = time.Since(start).Seconds()
	return b, nil
}

// daemon is one cmd/passd child with its data directories. It keeps its
// address across restarts, so a follower's -join stays valid.
type daemon struct {
	bin   string
	dir   string // holds log/, ckpt/ and passd.out
	addr  string
	admin string
	args  []string // role flags, after the shipped ones

	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd is reaped
	out    *os.File
	hwmKB  int64 // largest VmHWM seen over every incarnation
	ticks  int64 // CPU ticks of incarnations already reaped
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newDaemon lays out a daemon under dir with the shipped flags: -logdir
// and -checkpoint-dir, MMR and signer on, drain and checkpoint triggers at
// their defaults. role adds -replicate or -join.
func newDaemon(bin, dir string, role ...string) (*daemon, error) {
	d := &daemon{bin: bin, dir: dir, args: role}
	for _, sub := range []string{"log", "ckpt"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	var err error
	if d.addr, err = freeAddr(); err != nil {
		return nil, err
	}
	if d.admin, err = freeAddr(); err != nil {
		return nil, err
	}
	return d, nil
}

// flags is the daemon's exact command line, recorded in every result.
func (d *daemon) flags() []string {
	return append([]string{
		"-addr", d.addr, "-admin", d.admin,
		"-logdir", filepath.Join(d.dir, "log"),
		"-checkpoint-dir", filepath.Join(d.dir, "ckpt"),
	}, d.args...)
}

// start execs the daemon and returns once it answers a ping.
func (d *daemon) start() error {
	out, err := os.OpenFile(filepath.Join(d.dir, "passd.out"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	d.out = out
	d.cmd = exec.Command(d.bin, d.flags()...)
	d.cmd.Stdout, d.cmd.Stderr = out, out
	// The benchmark stops every daemon itself; this covers the benchmark
	// being killed first.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		out.Close()
		return err
	}
	exited := make(chan struct{})
	go func() { d.cmd.Wait(); close(exited) }()
	d.exited = exited
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-exited:
			return fmt.Errorf("passd exited during start-up: %s", d.tail())
		default:
		}
		conn, err := net.DialTimeout("tcp", d.addr, time.Second)
		if err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return fmt.Errorf("passd did not listen on %s within 60s: %s", d.addr, d.tail())
}

// tail returns the end of the daemon's output, for error messages.
func (d *daemon) tail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "passd.out"))
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// dial opens one benchmark connection: protocol v3, default resilience.
func dial(addr string) (*passd.Client, error) {
	c, err := passd.Dial(addr)
	if err != nil {
		return nil, err
	}
	if v, _, err := c.Hello(); err != nil {
		c.Close()
		return nil, err
	} else if v < 3 {
		c.Close()
		return nil, fmt.Errorf("daemon negotiated protocol v%d, the benchmark drives v3", v)
	}
	return c, nil
}

// kill sends SIGKILL and reaps the process, keeping its CPU and memory
// high-water mark.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.sample()
	d.ticks = d.cpuTicks()
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
	d.cmd = nil
	d.out.Close()
}

// proc reads /proc/<pid>/<file>.
func (d *daemon) proc(file string) []byte {
	if d.cmd == nil {
		return nil
	}
	b, _ := os.ReadFile(fmt.Sprintf("/proc/%d/%s", d.cmd.Process.Pid, file))
	return b
}

// cpuTicks is user+system CPU of every incarnation so far, in clock
// ticks (100 per second on Linux).
func (d *daemon) cpuTicks() int64 {
	stat := d.proc("stat")
	// The command name may hold spaces; fields are counted after its ")".
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return d.ticks
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return d.ticks
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return d.ticks + utime + stime
}

// sample folds the live process's VmHWM into the high-water mark.
func (d *daemon) sample() {
	for _, line := range strings.Split(string(d.proc("status")), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if kb > d.hwmKB {
				d.hwmKB = kb
			}
		}
	}
}

// logBytes is the size of the daemon's live provenance log.
func (d *daemon) logBytes() int64 {
	st, err := os.Stat(filepath.Join(d.dir, "log", "log.current"))
	if err != nil {
		return 0
	}
	return st.Size()
}

const clockTicksPerSecond = 100
