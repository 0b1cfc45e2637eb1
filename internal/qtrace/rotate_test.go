package qtrace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRotatingFileRotates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.jsonl")
	// Cap of 100 bytes, 3 files total (active + 2 archives).
	rf, err := openRotatingFile(path, 100)
	if err != nil {
		t.Fatal(err)
	}
	line := func(i int) []byte {
		return []byte(strings.Repeat("x", 35) + string(rune('a'+i)) + "\n") // 37 bytes
	}
	// 100/37 = 2 lines per file; 9 lines → active{i,h} + .1{g,f} + .2{e,d},
	// with the two oldest archives (a,b / c) rotated off the end.
	for i := 0; i < 9; i++ {
		if _, err := rf.Write(line(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{path, path + ".1", path + ".2"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if n := int64(len(b)); n > 100 {
			t.Errorf("%s is %d bytes, cap 100", f, n)
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("path.3 exists beyond the retention bound")
	}
	// The newest line is in the active file; lines never split.
	b, _ := os.ReadFile(path)
	if !bytes.HasSuffix(b, line(8)) {
		t.Errorf("active file does not end with the newest line: %q", b)
	}
}

func TestRotatingFileOversizeLineLandsWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.jsonl")
	rf, err := openRotatingFile(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	big := []byte(strings.Repeat("y", 50) + "\n")
	if _, err := rf.Write([]byte("short\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := rf.Write(big); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if !bytes.Equal(b, big) {
		t.Errorf("active file = %q, want the oversize line whole", b)
	}
}

func TestRotatingFileAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slow.jsonl")
	rf, err := openRotatingFile(path, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rf.Write([]byte("one\n"))
	rf.Close()
	rf, err = openRotatingFile(path, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rf.Write([]byte("two\n"))
	rf.Close()
	b, _ := os.ReadFile(path)
	if string(b) != "one\ntwo\n" {
		t.Errorf("after reopen: %q", b)
	}
	if _, err := rf.Write([]byte("late\n")); err != os.ErrClosed {
		t.Errorf("write after close = %v, want os.ErrClosed", err)
	}
}

// TestTracerSlowLogOnRotatingFile wires the two together the way distjoind
// does and checks every rotated line is intact JSON.
func TestTracerSlowLogOnRotatingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.jsonl")
	rf, err := openRotatingFile(path, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tr := New(Config{SlowLog: rf})
	for i := 0; i < 12; i++ {
		tr.Begin("join", "").Finish(Report{}, nil)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rf.Close(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range []string{path + ".2", path + ".1", path} {
		b, err := os.ReadFile(f)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var qt QueryTrace
			if err := json.Unmarshal(line, &qt); err != nil {
				t.Fatalf("%s: corrupt line %q: %v", f, line, err)
			}
			total++
		}
	}
	// Retention is bounded, not lossless: the oldest lines rotate off the
	// end. Everything retained must be intact, and the bound must hold.
	if total < 3 || total > 12 {
		t.Errorf("recovered %d intact lines across rotated files, want 3..12", total)
	}
}
