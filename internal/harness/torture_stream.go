package harness

import (
	"errors"
	"fmt"

	"silo/internal/fault"
	"silo/internal/recovery"
)

// Record is one campaign outcome in the fleet's checkpoint store, kept
// as its JSON encoding in the record's payload: self-contained (the
// campaign is reconstructible from it, so a resumed sweep re-derives
// nothing) and machine-readable for CI (silo-report -jsonl exports it).
type Record struct {
	Index    int    `json:"index"`
	Design   string `json:"design"`
	Workload string `json:"workload"`
	Cores    int    `json:"cores"`
	Txns     int    `json:"txns"`
	OpsPerTx int    `json:"ops_per_tx,omitempty"`
	Seed     int64  `json:"seed"`
	Plan     string `json:"plan"`
	Repro    string `json:"repro"`

	MidRun   bool            `json:"mid_run"`
	Commits  int64           `json:"commits"`
	Torn     int64           `json:"torn"`
	Dropped  int64           `json:"dropped"`
	Restarts int             `json:"restarts"`
	Report   recovery.Report `json:"report"`
	Avail    *AvailSummary   `json:"avail,omitempty"`
	Explore  *ExploreMetrics `json:"explore,omitempty"`

	Mismatches []string `json:"mismatches,omitempty"`
	Err        string   `json:"err,omitempty"`
	Invariant  string   `json:"invariant,omitempty"`
	Trail      []string `json:"trail,omitempty"`
	Panicked   bool     `json:"panicked,omitempty"`
	TimedOut   bool     `json:"timed_out,omitempty"`
	Infra      bool     `json:"infra,omitempty"`
	Attempts   int      `json:"attempts"`
}

// OutcomeRecord converts an executed campaign's outcome to its record.
func OutcomeRecord(o CampaignOutcome) Record {
	r := Record{
		Index:    o.Campaign.Index,
		Design:   o.Campaign.Spec.Design,
		Workload: o.Campaign.Spec.Workload,
		Cores:    o.Campaign.Spec.Cores,
		Txns:     o.Campaign.Spec.Txns,
		OpsPerTx: o.Campaign.Spec.OpsPerTx,
		Seed:     o.Campaign.Spec.Seed,
		Plan:     o.Campaign.Plan.String(),
		Repro:    o.Campaign.Repro(),

		MidRun:   o.MidRun,
		Commits:  o.Commits,
		Torn:     o.Torn,
		Dropped:  o.Dropped,
		Restarts: o.Restarts,
		Report:   o.Report,
		Avail:    o.Avail,
		Explore:  o.Explore,

		Mismatches: o.Mismatches,
		Invariant:  o.Invariant,
		Trail:      o.Trail,
		Panicked:   o.Panicked,
		TimedOut:   o.TimedOut,
		Infra:      o.Infra,
		Attempts:   o.Attempts,
	}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	return r
}

// Outcome reconstructs the campaign outcome, including the campaign
// itself (spec + parsed plan), so a resumed sweep can aggregate and
// shrink it exactly as if it had just run.
func (r Record) Outcome() (CampaignOutcome, error) {
	plan, err := fault.ParsePlan(r.Plan)
	if err != nil {
		return CampaignOutcome{}, fmt.Errorf("plan %q: %w", r.Plan, err)
	}
	o := CampaignOutcome{
		Campaign: Campaign{
			Index: r.Index,
			Spec: Spec{
				Design:   r.Design,
				Workload: r.Workload,
				Cores:    r.Cores,
				Txns:     r.Txns,
				Seed:     r.Seed,
				OpsPerTx: r.OpsPerTx,
			},
			Plan: plan,
		},
		MidRun:   r.MidRun,
		Commits:  r.Commits,
		Torn:     r.Torn,
		Dropped:  r.Dropped,
		Restarts: r.Restarts,
		Report:   r.Report,
		Avail:    r.Avail,
		Explore:  r.Explore,

		Mismatches: r.Mismatches,
		Invariant:  r.Invariant,
		Trail:      r.Trail,
		Panicked:   r.Panicked,
		TimedOut:   r.TimedOut,
		Infra:      r.Infra,
		Attempts:   r.Attempts,
	}
	if r.Err != "" {
		o.Err = errors.New(r.Err)
	}
	return o, nil
}
