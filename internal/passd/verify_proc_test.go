package passd

// Process-level audit test: a real passd writes a signed, checkpointed
// provenance log; it is SIGKILLed mid-ingest; the passverify CLI then
// audits the survivors offline and must pass — and must fail loudly when
// a single early byte (inside the signed region) of a log copy is
// flipped. This is the issue's end-to-end acceptance path for the
// tamper-evidence stack.

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func buildPassverify(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives real binaries; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "passverify")
	if out, err := exec.Command(goBin, "build", "-o", bin, "passv2/cmd/passverify").CombinedOutput(); err != nil {
		t.Fatalf("building passverify: %v\n%s", err, out)
	}
	return bin
}

func countGenerations(t *testing.T, ckptDir string) int {
	t.Helper()
	ents, err := os.ReadDir(ckptDir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".meta") {
			n++
		}
	}
	return n
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPassverifyAuditProc(t *testing.T) {
	bin := buildPassd(t)
	vbin := buildPassverify(t)
	addr := reservePort(t)
	logDir := filepath.Join(t.TempDir(), "log")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")

	daemon := startReplDaemon(t, bin,
		"-addr", addr, "-logdir", logDir,
		"-checkpoint-dir", ckptDir,
		"-checkpoint-records", "40", "-checkpoint-interval", "150ms",
		"-drain-interval", "25ms",
	)

	c, err := DialOptions(addr, Options{RetryBase: 50 * time.Millisecond, MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Ingest continuously in the background; the kill lands mid-stream.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; ; b++ {
			select {
			case <-stop:
				return
			default:
			}
			// Errors are expected once the daemon dies under us.
			if err := c.AppendProvenance(replRecs(b*20, 20)); err != nil {
				return
			}
		}
	}()

	// Wait for at least 3 committed, signed generations, then SIGKILL
	// with appends still in flight.
	deadline := time.Now().Add(30 * time.Second)
	for countGenerations(t, ckptDir) < 3 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("never reached 3 checkpoint generations (have %d)", countGenerations(t, ckptDir))
		}
		time.Sleep(20 * time.Millisecond)
	}
	daemon.Process.Kill()
	daemon.Wait()
	close(stop)
	wg.Wait()

	pub := filepath.Join(logDir, "keys", "signer.pub")
	if _, err := os.Stat(pub); err != nil {
		t.Fatalf("daemon did not persist its public identity: %v", err)
	}

	// The offline audit must pass on whatever survived the kill: every
	// signed root checked against a from-bytes replay, consistency
	// across generations, inclusion proofs for early records.
	out, err := exec.Command(vbin,
		"-logdir", logDir, "-checkpoint-dir", ckptDir,
		"-pub", pub, "-prove", "0,5,17",
	).CombinedOutput()
	t.Logf("passverify (clean):\n%s", out)
	if err != nil {
		t.Fatalf("audit of a kill-surviving daemon failed: %v", err)
	}
	if !strings.Contains(string(out), "passverify: OK") {
		t.Fatalf("audit did not report OK:\n%s", out)
	}

	// Flip one EARLY byte in a copy of the log — inside the region the
	// oldest signed root covers — and the audit must fail with exit 1.
	tampered := filepath.Join(t.TempDir(), "tampered")
	copyTree(t, logDir, tampered)
	ents, err := os.ReadDir(tampered)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "log.") {
			seg = filepath.Join(tampered, e.Name())
			break
		}
	}
	if seg == "" {
		t.Fatalf("no log segment in %v", ents)
	}
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[40] ^= 0x01
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(vbin,
		"-logdir", tampered, "-checkpoint-dir", ckptDir, "-pub", pub,
	).CombinedOutput()
	t.Logf("passverify (flipped bit):\n%s", out)
	var xerr *exec.ExitError
	if !errors.As(err, &xerr) || xerr.ExitCode() != 1 {
		t.Fatalf("audit of a bit-flipped log: err=%v, want exit status 1", err)
	}
	if !strings.Contains(string(out), "FAILURE") {
		t.Fatalf("failed audit did not report failures:\n%s", out)
	}
}
