package main

import (
	"fmt"

	"vertigo/internal/core"
	"vertigo/internal/units"
)

// trainHorizonsMs are the simulated lengths at which the train-identity
// check compares packet trains with the per-packet engine.
var trainHorizonsMs = []int{5, 10, 20}

// childCheck tests the promise in fabric.Config.TrainLen's comment and in
// DESIGN.md, that packet trains change event granularity and never results,
// on the leafspine_incast scenario. It reports and warns; it does not count
// as a failed operation, because the promise is the fabric's to keep and
// this benchmark changes no code outside its directory.
func childCheck(req childReq) (*layerResult, error) {
	digest := func(ms int, trains bool) (string, error) {
		cfg := leafSpineIncast(req.Seed, units.Time(ms)*units.Millisecond)
		if !trains {
			cfg.Fabric.TrainLen = 0
		}
		res, err := core.Run(cfg)
		if err != nil {
			return "", err
		}
		return simDigest(res.Summary), nil
	}
	differ := func(ms int) (bool, error) {
		with, err := digest(ms, true)
		if err != nil {
			return false, err
		}
		without, err := digest(ms, false)
		return with != without, err
	}

	res := &layerResult{Layer: map[string]float64{
		"fabric.train_identity":             1,
		"fabric.train_identity_diverged_ms": 0,
	}}
	for _, ms := range trainHorizonsMs {
		d, err := differ(ms)
		if err != nil {
			return nil, err
		}
		if d {
			res.Layer["fabric.train_identity"] = 0
			res.Layer["fabric.train_identity_diverged_ms"] = float64(ms)
			res.Warn = fmt.Sprintf("WARN fabric.train_identity: leafspine_incast seed %d with TrainLen=64 and TrainLen=0 "+
				"give different summaries from %d simulated ms on; TrainLen is documented to change performance, never results",
				req.Seed, ms)
			break
		}
	}
	return res, nil
}
