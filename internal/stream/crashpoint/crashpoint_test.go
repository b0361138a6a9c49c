package crashpoint

import "testing"

// The crash itself (os.Exit at the Nth hit) is exercised by the subprocess
// matrix in internal/stream; these tests pin the spec grammar and the
// miss paths — the ones a wrong parse would silently disable.

func TestArmSpecGrammar(t *testing.T) {
	defer Arm("")
	for _, spec := range []string{"", "wal.pre_append", "wal.pre_append@1", "checkpoint.post_sync@37"} {
		if err := Arm(spec); err != nil {
			t.Errorf("Arm(%q): %v", spec, err)
		}
	}
	for _, spec := range []string{"@3", "wal.pre_append@", "wal.pre_append@0", "wal.pre_append@-2", "wal.pre_append@x"} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted an invalid spec", spec)
		}
	}
}

func TestHereMissesDoNotCrash(t *testing.T) {
	defer Arm("")
	// Disarmed: every point is a no-op.
	if err := Arm(""); err != nil {
		t.Fatal(err)
	}
	for _, name := range Points {
		Here(name)
	}
	// Armed for one name at a high hit count: other names never count
	// toward it, and earlier hits of the armed name pass through.
	if err := Arm("commit.pre_emit@1000"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for _, name := range Points {
			Here(name)
		}
	}
	// Re-arming resets the hit counter; reaching this line at all is the
	// assertion (a miscount would have exited the test process with 86).
	if err := Arm("commit.pre_emit@1000"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 999; i++ {
		Here("commit.pre_emit")
	}
}
