package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestCustombench runs the program at its own horizon: its headline row is
// Ada-ARI's, with a gain over the Ada-Baseline on the custom kernel.
func TestCustombench(t *testing.T) {
	out := stdoutOf(t, main)
	if !regexp.MustCompile(`(?m)^custom kernel "ptrchase" across schemes:$`).MatchString(out) {
		t.Errorf("no title line in:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^Ada-ARI +\d+\.\d{3} +\+[1-9]\d*\.\d%$`).MatchString(out) {
		t.Errorf("no Ada-ARI row with a gain in:\n%s", out)
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
