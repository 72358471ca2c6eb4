package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many fresh processes a run builds its environment in;
// setup_s is the median of their set-up times.
const setupReps = 5

// setupTimeout bounds one set-up process.
const setupTimeout = 60 * time.Second

// childSetup is what a set-up process prints as its last line.
type childSetup struct {
	Seconds float64 `json:"seconds"` // un-stolen seconds
	Wall    float64 `json:"wall"`    // wall-clock seconds
	Steal   float64 `json:"steal"`   // steal share of the set-up
}

// setupTimes are the set-ups of one run, one per fresh process.
type setupTimes []childSetup

func (s setupTimes) median() float64 {
	xs := make([]float64, len(s))
	for i, c := range s {
		xs[i] = c.Seconds
	}
	return median(xs)
}

func (s setupTimes) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "setup_s: median of %d set-ups, each in a fresh process (s, wall s, steal):", len(s))
	for _, c := range s {
		fmt.Fprintf(&b, " (%.4f, %.4f, %.1f%%)", c.Seconds, c.Wall, 100*c.Steal)
	}
	return b.String()
}

// setupChildren runs setupReps fresh copies of this program, one after
// another, each building the workload's environment once, warm-up
// included, and reporting how long that took. A fresh process loads and
// lowers the builtin cat models, as herdd and mined do when they start; a
// second set-up in the same process would find them done already.
func setupChildren(workload string, seed uint64) (setupTimes, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := make(setupTimes, setupReps)
	for k := range times {
		ctx, cancel := context.WithTimeout(context.Background(), setupTimeout)
		cmd := exec.CommandContext(ctx, self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--setup-child")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", k, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &times[k]); err != nil {
			return nil, fmt.Errorf("set-up process %d: %w", k, err)
		}
	}
	return times, nil
}

// setupOnce is the body of a set-up process: it makes the workload's
// warm-up inputs, untimed, then builds its environment once and times
// that, in un-stolen seconds like the timed runs. The inputs of a run of
// 0 seconds are exactly the warm-up inputs, a prefix of every longer run's.
func setupOnce(workload string, seed uint64) (childSetup, error) {
	const seconds = 0
	var build func() (func(), error)
	switch workload {
	case "cold-light", "cold-heavy":
		in, err := coldInputsFor(workload, seed, seconds)
		if err != nil {
			return childSetup{}, err
		}
		warm, err := runBodies(in.warm)
		if err != nil {
			return childSetup{}, err
		}
		build = func() (func(), error) {
			e, err := newColdEnv(in.enumWorkers, nil, warm)
			if err != nil {
				return nil, err
			}
			return e.close, nil
		}
	case "warm-gw-batch":
		in, err := warmGWInputs(seed, seconds)
		if err != nil {
			return childSetup{}, err
		}
		build = func() (func(), error) {
			e, err := newWarmEnv(in.corpus, nil, in.warm)
			if err != nil {
				return nil, err
			}
			return e.close, nil
		}
	case "mine-ppc":
		in := minePPCInputs(seed, seconds)
		build = func() (func(), error) {
			_, err := newMiner(in, newDecideClock(nil))
			return func() {}, err
		}
	default:
		return childSetup{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	runtime.GC()
	meter := startSampler()
	t0 := time.Now()
	closeEnv, err := build()
	t1 := time.Now()
	meter.close()
	if err != nil {
		return childSetup{}, err
	}
	closeEnv()
	wall, steal := t1.Sub(t0).Seconds(), meter.stealShare(t0, t1)
	return childSetup{Seconds: wall * (1 - steal), Wall: wall, Steal: steal}, nil
}
