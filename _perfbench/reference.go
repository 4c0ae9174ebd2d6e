package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// The reference objectives are computed by paths independent of the ones
// the benchmark measures: the sweep's by independent cold solves (no warm
// starts, no pattern cache), the DAG solves' by the simplicial backend
// instead of the supernodal one FactorAuto picks. Regenerate with
//
//	perfbench -write-reference _perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

// reference is the recorded expected output of the batch workloads.
type reference struct {
	// RelTol is the relative tolerance on continuous objectives: solves
	// stop at a relative gap of 1e-9, and warm and cold or different
	// backends land anywhere inside it.
	RelTol float64  `json:"relTol"`
	Sweep  sweepRef `json:"sweep"`
	DAG    dagRef   `json:"dag"`
}

type sweepRef struct {
	Tasks      int       `json:"tasks"`
	Caps       []int     `json:"caps"`
	Objectives []float64 `json:"objectives"`
}

type dagRef struct {
	Tasks      int       `json:"tasks"`
	Seeds      []int64   `json:"seeds"`
	Objectives []float64 `json:"objectives"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reading reference.json: %w", err)
	}
	if len(ref.Sweep.Caps) != len(ref.Sweep.Objectives) || len(ref.DAG.Seeds) != len(ref.DAG.Objectives) {
		return nil, fmt.Errorf("reference.json: objective counts do not match their inputs")
	}
	return &ref, nil
}

// objectiveOK reports whether got matches want within the relative
// tolerance.
func objectiveOK(got, want, relTol float64) bool {
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// sweepCaps are the buffer caps of sweep-chain100: 8…67, 60 points.
func sweepCaps() []int {
	caps := make([]int, 60)
	for i := range caps {
		caps[i] = i + 8
	}
	return caps
}

// dagSeeds are the instance seeds of the joint-dag300 pool.
var dagSeeds = []int64{1, 2, 3, 4, 5, 6}

const (
	sweepTasks = 100
	dagTasks   = 300
)

func dagInstance(seed int64) *taskgraph.Config {
	return gen.RandomDAG(gen.DAGOptions{Seed: seed, Tasks: dagTasks})
}

func writeReference(path string) error {
	ctx := context.Background()
	ref := reference{RelTol: 1e-6}
	ref.Sweep = sweepRef{Tasks: sweepTasks, Caps: sweepCaps()}
	pts, err := core.SweepBufferCaps(ctx, gen.Chain(gen.ChainOptions{Tasks: sweepTasks}), nil, ref.Sweep.Caps,
		core.Options{Parallelism: 1, NoWarmStart: true, NoPatternCache: true})
	if err != nil {
		return err
	}
	for _, p := range pts {
		if p.Result.Status != core.StatusOptimal {
			return fmt.Errorf("sweep cap %d: status %v", p.Cap, p.Result.Status)
		}
		ref.Sweep.Objectives = append(ref.Sweep.Objectives, p.Result.ContinuousObjective)
	}
	ref.DAG = dagRef{Tasks: dagTasks, Seeds: dagSeeds}
	for _, s := range dagSeeds {
		res, err := core.Solve(ctx, dagInstance(s), core.Options{Solver: socp.Options{Factorization: socp.FactorSparse}})
		if err != nil {
			return err
		}
		if res.Status != core.StatusOptimal {
			return fmt.Errorf("dag seed %d: status %v", s, res.Status)
		}
		ref.DAG.Objectives = append(ref.DAG.Objectives, res.ContinuousObjective)
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
