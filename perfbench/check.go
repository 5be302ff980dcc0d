package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
)

// maxLoggedProblems bounds the failed-check lines a run prints.
const maxLoggedProblems = 20

// checker counts attempted and failed operations. An operation fails when
// any of its output checks finds a problem; the run goes on either way.
type checker struct {
	mu        sync.Mutex
	log       io.Writer
	size      string            // "full" or "short": digests are pinned per size
	pinned    map[string]string // digest name → expected SHA-256
	seen      map[string]string // digest name → first SHA-256 this process saw
	attempted int64
	failed    int64
	logged    int
}

func newChecker(o options, log io.Writer) *checker {
	size := "full"
	if o.short {
		size = "short"
	}
	return &checker{log: log, size: size, pinned: pinnedDigests, seen: map[string]string{}}
}

// op records one attempted operation and reports whether it passed.
func (c *checker) op(name string, problems []string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if len(problems) == 0 {
		return true
	}
	c.failed++
	for _, p := range problems {
		if c.logged < maxLoggedProblems {
			fmt.Fprintf(c.log, "check failed: %s: %s\n", name, p)
		}
		c.logged++
	}
	return false
}

func (c *checker) totals() (attempted, failed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// digest checks one output against its pinned digest and against the
// first digest this process computed for the same name (the exact-repeat
// check); it returns the problems found. Each digest is printed once, as
// "digest <name> <sha256>", so separate runs can be compared.
func (c *checker) digest(name string, data []byte) []string {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	key := c.size + "/" + name
	c.mu.Lock()
	defer c.mu.Unlock()
	var problems []string
	if want, ok := c.pinned[key]; ok && want != got {
		problems = append(problems, fmt.Sprintf("digest %s is %s, pinned %s", key, got[:12], want[:12]))
	}
	if first, ok := c.seen[key]; !ok {
		c.seen[key] = got
		fmt.Fprintf(c.log, "digest %s %s\n", key, got)
	} else if first != got {
		problems = append(problems, fmt.Sprintf("digest %s is %s, was %s earlier in this run", key, got[:12], first[:12]))
	}
	return problems
}
