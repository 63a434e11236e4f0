package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"dqemu/internal/core"
)

// ref.json pins each catalogue program's console and exit code. It was
// produced by `perfbench -genref perfbench/ref.json`, which runs every
// program on the interpreter tier (core.Config.Interp) of a single node, so
// no tier the benchmark measures checks itself. The consoles of these
// programs do not depend on the cluster shape or the schedule, so sim, live
// and service ops all compare against the same entry.
//
//go:embed ref.json
var refJSON []byte

type reference struct {
	Exit    int64  `json:"exit"`
	Console string `json:"console"`
}

type refFile struct {
	Note string               `json:"note"`
	Refs map[string]reference `json:"refs"`
}

func loadRefs() (map[string]reference, error) {
	var f refFile
	if err := json.Unmarshal(refJSON, &f); err != nil {
		return nil, fmt.Errorf("ref.json: %w", err)
	}
	return f.Refs, nil
}

// maskConsole drops lines that report the guest's own timing rather than a
// result: falseshare prints the virtual time it measured, which depends on
// the cluster shape and the tier.
func maskConsole(s string) string {
	lines := strings.SplitAfter(s, "\n")
	out := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "elapsed_ns=") {
			out = append(out, l)
		}
	}
	return strings.Join(out, "")
}

// check compares an op's exit code and console with the reference.
func (r reference) check(exit int64, console string) error {
	if exit != r.Exit {
		return fmt.Errorf("exit code %d, want %d", exit, r.Exit)
	}
	if got := maskConsole(console); got != r.Console {
		return fmt.Errorf("console %q, want %q", got, r.Console)
	}
	return nil
}

// lookupRef finds the reference for a program key.
func lookupRef(refs map[string]reference, key string) (reference, error) {
	r, ok := refs[key]
	if !ok {
		return reference{}, fmt.Errorf("no reference for %s in ref.json", key)
	}
	return r, nil
}

// genRefs runs every catalogue program on the interpreter and writes the
// reference file.
// Entries already in the file at path are kept when their program is still
// in the catalogue; the rest are dropped.
func genRefs(path string) error {
	var old refFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	refs := map[string]reference{}
	var progs []prog
	for _, p := range allProgs() {
		if r, ok := old.Refs[p.key]; ok {
			refs[p.key] = r
		} else {
			progs = append(progs, p)
		}
	}
	var mu sync.Mutex
	var firstErr error
	work := make(chan prog)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				t0 := time.Now()
				ref, err := interpRef(p)
				fmt.Fprintf(os.Stderr, "genref: %s %v %v\n", p.key, time.Since(t0).Round(time.Millisecond), err)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				refs[p.key] = ref
				mu.Unlock()
			}
		}()
	}
	for _, p := range progs {
		work <- p
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	data, err := json.MarshalIndent(refFile{
		Note: "console (elapsed_ns lines removed) and exit code of each program on the interpreter tier, one node",
		Refs: refs,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func interpRef(p prog) (reference, error) {
	im, err := p.build()
	if err != nil {
		return reference{}, fmt.Errorf("%s: %w", p.key, err)
	}
	cfg := core.DefaultConfig()
	cfg.Interp = true
	res, err := core.Run(im, cfg)
	if err != nil {
		return reference{}, fmt.Errorf("%s: %w", p.key, err)
	}
	return reference{Exit: res.ExitCode, Console: maskConsole(res.Console)}, nil
}
