// Package crashpoint is the deterministic crash-injection harness behind
// the streaming monitor's durability tests (DESIGN.md §13). The durability
// code marks every boundary where a crash has a distinct recovery meaning —
// before/after a WAL append, around a checkpoint append and its fsync,
// between WAL segment deletions, before a commit is emitted — with a named
// Here() call. A test (or the check.sh crash matrix) arms exactly one point
// via Arm("name@N"); the Nth time execution reaches it the process exits
// immediately with ExitCode, simulating a kill at that precise instant.
// Recovery is then exercised for real: the harness restarts the process
// against the same state directory and requires output byte-identical to
// an uninterrupted run.
//
// Disarmed, every Here() is a single atomic load — the hooks stay compiled
// into production builds, so the tested binary is the shipped binary.
package crashpoint

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ExitCode is the exit status of an injected crash, distinct from both a
// clean exit and the daemon's error exit so harnesses can assert the crash
// actually fired.
const ExitCode = 86

// Points is the crashpoint inventory: every durability boundary the
// streaming monitor marks. Tests range over it so a new boundary cannot be
// added without joining the crash matrix.
var Points = []string{
	"wal.pre_append",         // frame accepted, nothing written yet
	"wal.post_append",        // record written (and synced per policy), state not yet mutated
	"checkpoint.pre_append",  // quiescent, frame WAL synced, checkpoint record not yet written
	"checkpoint.post_append", // checkpoint record written, its fsync pending
	"checkpoint.post_sync",   // checkpoint durable, WAL garbage collection pending
	"gc.post_remove",         // one covered WAL segment removed, more may follow
	"commit.pre_emit",        // result rendered, not yet committed/emitted
	"drain.pre_checkpoint",   // graceful drain finished, final checkpoint pending
}

type armed struct {
	name string
	hit  int
}

var (
	enabled atomic.Bool
	mu      sync.Mutex
	cfg     armed
	count   int
)

// Arm installs a crash spec: "" disarms, "name" crashes the first time
// execution reaches that crashpoint, "name@N" the Nth time (1-based). The
// daemon arms from the CSI_CRASHPOINT environment variable; tests call Arm
// directly.
func Arm(spec string) error {
	mu.Lock()
	defer mu.Unlock()
	count = 0
	if spec == "" {
		enabled.Store(false)
		cfg = armed{}
		return nil
	}
	name, nStr, hasN := strings.Cut(spec, "@")
	if name == "" {
		return fmt.Errorf("crashpoint: empty name in spec %q", spec)
	}
	n := 1
	if hasN {
		v, err := strconv.Atoi(nStr)
		if err != nil || v < 1 {
			return fmt.Errorf("crashpoint: bad hit count in spec %q (want name@N, N >= 1)", spec)
		}
		n = v
	}
	cfg = armed{name: name, hit: n}
	enabled.Store(true)
	return nil
}

// Here marks a named crashpoint. If the process is armed for this name,
// the configured hit terminates it with ExitCode — no unwinding, no
// deferred cleanup, exactly like a kill.
func Here(name string) {
	if !enabled.Load() {
		return
	}
	mu.Lock()
	if cfg.name != name {
		mu.Unlock()
		return
	}
	count++
	crash := count == cfg.hit
	mu.Unlock()
	if crash {
		os.Exit(ExitCode)
	}
}
