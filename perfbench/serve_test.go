package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A stub server that stalls: requests queue behind the stall on the
// client's connections, so their latency measured from the due time
// grows while the time on the wire stays short, and the generator
// itself stays on schedule.
func TestOpenLoopLatenessAgainstStub(t *testing.T) {
	const stall = 300 * time.Millisecond
	// The first two requests stall, one on each of the client's two
	// connections (nproc on the test machine may be larger: then fewer
	// requests queue, which the assertions allow).
	first := make(chan struct{}, 2)
	first <- struct{}{}
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	c := newClient(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()

	const rate, count = 100.0, 60
	recs := openLoop(context.Background(), c, rate, count, func(int) []byte { return []byte("x") })
	var maxLate, maxQueued time.Duration
	var late []float64
	for k := range recs {
		r := &recs[k]
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("request %d: %v status %d", k, r.err, r.status)
		}
		if want := recs[0].due.Add(time.Duration(float64(k) / rate * float64(time.Second))); !r.due.Equal(want) {
			t.Fatalf("request %d due %v, want %v", k, r.due, want)
		}
		l := r.dispatched.Sub(r.due)
		late = append(late, float64(l))
		if l > maxLate {
			maxLate = l
		}
		if q := r.sent.Sub(r.due); q > maxQueued {
			maxQueued = q
		}
	}
	// The generator keeps its schedule while requests queue: its
	// lateness is a scheduler wake-up, far below the stall (a loaded
	// machine can still delay single wake-ups by milliseconds).
	if med := time.Duration(median(late)); med > 5*time.Millisecond || maxLate > stall/2 {
		t.Errorf("generator fell behind schedule against a stalled server: median %v, max %v", med, maxLate)
	}
	if runtime.NumCPU() <= 2 && maxQueued < stall/2 {
		t.Errorf("no request waited for a connection (max %v) although the server stalled %v", maxQueued, stall)
	}
	stalled := recs[0].done.Sub(recs[0].due)
	if stalled < stall {
		t.Errorf("stalled request latency %v, want at least %v", stalled, stall)
	}
	// Half-way through the stall the stalled requests are still out.
	if n := backlog(recs, recs[0].due.Add(stall/2)); n < 2 {
		t.Errorf("backlog half-way through the stall is %d, want >= 2", n)
	}
	if n := backlog(recs, recs[count-1].done.Add(time.Millisecond)); n != 0 {
		t.Errorf("backlog after the last answer is %d, want 0", n)
	}
}

// The harness must leave no elmored process and no listener behind
// when it is interrupted in the middle of a rate step.
func TestServeInterruptStopsChild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	dir := t.TempDir()
	build := func(pkgDir, out, pkg string) {
		cmd := exec.Command("go", "build", "-o", out, pkg)
		cmd.Dir = pkgDir
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
	}
	build("..", filepath.Join(dir, "elmored"), "./cmd/elmored")
	build(".", filepath.Join(dir, "perfbench"), ".")

	for _, sig := range []syscall.Signal{syscall.SIGINT, syscall.SIGTERM} {
		t.Run(sig.String(), func(t *testing.T) {
			var stdout bytes.Buffer
			cmd := exec.Command(filepath.Join(dir, "perfbench"), "-bin", dir,
				"--workload", "serve-zipf", "--seed", "1", "--seconds", "60", "--trace", "0")
			cmd.Dir = ".."
			cmd.Stdout = &stdout
			stderr, stderrW := io.Pipe()
			defer stderr.Close()
			cmd.Stderr = stderrW
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			pidLine := regexp.MustCompile(`elmored pid (\d+) listening on (\S+)`)
			var pids []int
			var addr string
			sc := bufio.NewScanner(stderr)
			for len(pids) < setupRepeats && sc.Scan() {
				if m := pidLine.FindStringSubmatch(sc.Text()); m != nil {
					pid, _ := strconv.Atoi(m[1])
					pids, addr = append(pids, pid), m[2]
				}
			}
			if len(pids) < setupRepeats {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("harness reported %d servers, want %d", len(pids), setupRepeats)
			}
			go io.Copy(io.Discard, stderr)
			// The last server is warm and the reference step is running.
			time.Sleep(1500 * time.Millisecond)
			if err := syscall.Kill(pids[len(pids)-1], 0); err != nil {
				t.Fatalf("server %d not running mid-step: %v", pids[len(pids)-1], err)
			}
			if err := cmd.Process.Signal(sig); err != nil {
				t.Fatal(err)
			}
			var waitErr error
			done := make(chan error, 1)
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				waitErr = err
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				t.Fatal("harness did not exit within 30s of the signal")
			}
			var ee *exec.ExitError
			if !errors.As(waitErr, &ee) || ee.ExitCode() == 0 {
				t.Errorf("interrupted harness exited with %v, want a non-zero code", waitErr)
			}
			if strings.Contains(stdout.String(), `"correct"`) {
				t.Errorf("interrupted harness printed a result:\n%s", stdout.String())
			}
			for _, pid := range pids {
				if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("server pid %d still exists after the harness exited (kill 0: %v)", pid, err)
				}
			}
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				conn.Close()
				t.Errorf("port %s still accepts connections", addr)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "work-*")); len(left) > 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
			if _, err := os.Stat(filepath.Join(dir, "elmored")); err != nil {
				t.Errorf("build output removed: %v", err)
			}
		})
	}
}
