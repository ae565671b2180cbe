package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestQuickstart runs the program at its own horizon: its headline reports
// that ARI lifts bfs's IPC and cuts MC stall time.
func TestQuickstart(t *testing.T) {
	out := stdoutOf(t, main)
	m := regexp.MustCompile(`ARI IPC gain: \+(\d+\.\d)%   MC stall reduction: (\d+\.\d)%`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no headline line in:\n%s", out)
	}
	for _, v := range m[1:] {
		if f, _ := strconv.ParseFloat(v, 64); f <= 0 {
			t.Errorf("headline %q: want positive gains", m[0])
		}
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
