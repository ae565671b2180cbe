package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestNoctraffic runs the program with its default flags: the headline names
// the few-to-many split, and at the default load the baseline NIs reject
// packets by the last sample.
func TestNoctraffic(t *testing.T) {
	out := stdoutOf(t, main)
	if !regexp.MustCompile(`(?m)^reply network, 8 MCs -> 28 CCs, offered load 1\.20 pkt/pkt-time/MC, ARI=false$`).MatchString(out) {
		t.Errorf("no headline line in:\n%s", out)
	}
	m := regexp.MustCompile(`(?m)^ +3000 +\d+ +\d+ +(\d+)$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no cycle-3000 row in:\n%s", out)
	}
	if rejected, _ := strconv.Atoi(m[1]); rejected == 0 {
		t.Errorf("the saturated baseline rejected nothing:\n%s", out)
	}
}

// stdoutOf returns what f prints to os.Stdout.
func stdoutOf(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	f()
	os.Stdout = saved
	w.Close()
	return string(<-read)
}
