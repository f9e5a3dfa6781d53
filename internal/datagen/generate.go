package datagen

import (
	"math/rand"
	"sort"

	"repro/internal/relation"
	"repro/internal/rules"
)

// Config parameterizes a synthetic FI dataset. The zero value is completed
// by Default; only set the fields you care about.
type Config struct {
	// Size is the number of transactions (the paper's FIs range from 100K
	// to 10M; the scaled default keeps experiments laptop-fast).
	Size int
	// FraudPct is the percentage of fraudulent transactions (paper: 0.5-2.5).
	FraudPct float64
	// Days is the observation period length.
	Days int
	// Patterns is the number of planted attack patterns.
	Patterns int
	// DriftFraction is the fraction of patterns that only become active in
	// the second half of the period (the concept drift the rules must adapt
	// to).
	DriftFraction float64
	// FraudReportRate is the probability a fraudulent transaction is
	// reported (labeled FRAUD) by the card holder.
	FraudReportRate float64
	// LegitVerifyRate is the probability a legitimate transaction is
	// explicitly verified (labeled LEGITIMATE).
	LegitVerifyRate float64
	// ScoreSeparation in [0,1] controls the quality of the simulated ML
	// risk score: 0 is useless, 1 nearly separates the classes.
	ScoreSeparation float64
	// NearMissFactor controls how much legitimate traffic falls inside
	// attack-pattern regions, relative to the fraud rate. These are the
	// paper's l₁/l₂/l₃-style transactions: ordinary purchases that happen to
	// match an attack's window/amount/venue and force rule specialization.
	NearMissFactor float64
	// NearMissVerifyRate is the probability a near-miss is explicitly
	// verified legitimate (customers dispute flags on these often).
	NearMissVerifyRate float64
	// InitialRuleScoreRate is the probability an incumbent rule carries a
	// risk-score threshold ("in practice each rule also includes some
	// threshold condition on the score", Section 1). 0 disables them, which
	// is also the paper's simplification in its examples and evaluation.
	InitialRuleScoreRate float64
	// VelocityBursts plants that many card-testing bursts: runs of small
	// fraudulent probes at a single location within a few minutes, invisible
	// to per-tuple conjunctive rules and catchable only by a windowed
	// aggregate (COUNT(location, ...)). 0 disables them, and then the
	// generator draws nothing extra from the rng, so default datasets are
	// byte-identical to pre-velocity builds. Most meaningful with Days: 1
	// (see Schema on the minute-of-day clock).
	VelocityBursts int
	// Geo sizes the location ontology.
	Geo GeoConfig
	// Seed drives all randomness.
	Seed int64
}

// Default fills zero fields with the defaults used across the experiments.
func (c Config) Default() Config {
	if c.Size == 0 {
		c.Size = 5000
	}
	if c.FraudPct == 0 {
		c.FraudPct = 1.5
	}
	if c.Days == 0 {
		c.Days = 30
	}
	if c.Patterns == 0 {
		c.Patterns = 8
	}
	if c.DriftFraction == 0 {
		c.DriftFraction = 0.4
	}
	if c.FraudReportRate == 0 {
		c.FraudReportRate = 0.95
	}
	if c.LegitVerifyRate == 0 {
		c.LegitVerifyRate = 0.08
	}
	if c.ScoreSeparation == 0 {
		c.ScoreSeparation = 0.35
	}
	if c.NearMissFactor == 0 {
		c.NearMissFactor = 0.2
	}
	if c.NearMissVerifyRate == 0 {
		c.NearMissVerifyRate = 0.4
	}
	if c.Geo == (GeoConfig{}) {
		c.Geo = DefaultGeoConfig()
	}
	return c
}

// Dataset is a generated FI dataset: the labeled transaction relation, the
// per-tuple ground truth, and the planted patterns (the oracle expert's
// domain knowledge).
type Dataset struct {
	Config Config
	Schema *relation.Schema
	Rel    *relation.Relation
	// TrueFraud is the ground truth per transaction; labels in Rel reflect
	// only what has been reported/verified.
	TrueFraud []bool
	// Patterns are the planted attacks.
	Patterns []Pattern
	// Truth holds the pattern rules (one per pattern) for the oracle expert.
	Truth *rules.Set
	// Bursts are the planted velocity attacks (empty unless
	// Config.VelocityBursts > 0).
	Bursts []Burst
}

// Burst is one planted velocity attack: Size fraudulent probes at a single
// location leaf within Span minutes of one day. Every probe looks like
// ordinary small background traffic tuple-by-tuple — only the arrival rate
// separates it, so a per-tuple conjunctive rule cannot isolate a burst
// without also capturing the venue's normal customers.
type Burst struct {
	Day      int64
	Start    int64 // minute of day
	Span     int64 // minutes; probes land in [Start, Start+Span)
	Location int64 // ontology leaf id
	Size     int
}

// Generate synthesizes a dataset. Everything is driven by cfg.Seed; equal
// configs produce equal datasets.
func Generate(cfg Config) *Dataset {
	cfg = cfg.Default()
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := Schema(cfg.Geo, cfg.Days)

	patterns := makePatterns(rng, s, cfg)
	truth := rules.NewSet()
	for _, p := range patterns {
		truth.Add(p.Rule)
	}

	type row struct {
		t        relation.Tuple
		fraud    bool
		nearMiss bool
	}
	rows := make([]row, 0, cfg.Size)
	fraudTarget := cfg.FraudPct / 100
	for i := 0; i < cfg.Size; i++ {
		day := int64(rng.Intn(cfg.Days))
		draw := rng.Float64()
		if draw < fraudTarget {
			if p, ok := pickPattern(rng, patterns, int(day)); ok {
				rows = append(rows, row{t: sampleInPattern(rng, s, p, day), fraud: true})
				continue
			}
		} else if draw < fraudTarget*(1+cfg.NearMissFactor) {
			// A legitimate transaction that happens to fall inside an attack
			// region (the l₁/l₂/l₃ transactions of the paper's example).
			if p, ok := pickPattern(rng, patterns, int(day)); ok {
				rows = append(rows, row{t: sampleInPattern(rng, s, p, day), nearMiss: true})
				continue
			}
		}
		rows = append(rows, row{t: sampleBackground(rng, s, day), fraud: false})
	}
	var bursts []Burst
	if cfg.VelocityBursts > 0 {
		bursts = makeBursts(rng, s, cfg)
		for _, b := range bursts {
			for k := 0; k < b.Size; k++ {
				t := sampleBackground(rng, s, b.Day)
				t[AttrTime] = b.Start + rng.Int63n(b.Span)
				t[AttrLocation] = b.Location
				t[AttrAmount] = 1 + rng.Int63n(20) // card-testing probes are small
				rows = append(rows, row{t: t, fraud: true})
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].t[AttrDay] != rows[j].t[AttrDay] {
			return rows[i].t[AttrDay] < rows[j].t[AttrDay]
		}
		return rows[i].t[AttrTime] < rows[j].t[AttrTime]
	})

	ds := &Dataset{
		Config:   cfg,
		Schema:   s,
		Rel:      relation.New(s),
		Patterns: patterns,
		Truth:    truth,
		Bursts:   bursts,
	}
	scorer := newScorer(rng, cfg.ScoreSeparation)
	for _, rw := range rows {
		label := relation.Unlabeled
		switch {
		case rw.fraud:
			if rng.Float64() < cfg.FraudReportRate {
				label = relation.Fraud
			}
		case rw.nearMiss:
			if rng.Float64() < cfg.NearMissVerifyRate {
				label = relation.Legitimate
			}
		default:
			if rng.Float64() < cfg.LegitVerifyRate {
				label = relation.Legitimate
			}
		}
		ds.Rel.MustAppend(rw.t, label, scorer.score(rw.fraud))
		ds.TrueFraud = append(ds.TrueFraud, rw.fraud)
	}
	return ds
}

// makePatterns plants the attack patterns: the first (1-DriftFraction) share
// are active from day 0, the rest start in the second half of the period.
func makePatterns(rng *rand.Rand, s *relation.Schema, cfg Config) []Pattern {
	patterns := make([]Pattern, 0, cfg.Patterns)
	drift := int(float64(cfg.Patterns)*cfg.DriftFraction + 0.5)
	old := cfg.Patterns - drift
	for i := 0; i < old; i++ {
		patterns = append(patterns, randomPattern(rng, s, 0))
	}
	for i := 0; i < drift; i++ {
		start := cfg.Days/2 + rng.Intn(maxInt(1, cfg.Days*3/10))
		patterns = append(patterns, randomPattern(rng, s, start))
	}
	return patterns
}

// makeBursts places the velocity attacks: each picks a day, a start minute,
// a venue leaf, and 6-12 probes over a 5-minute span.
func makeBursts(rng *rand.Rand, s *relation.Schema, cfg Config) []Burst {
	leaves := s.Attr(AttrLocation).Ontology.Leaves()
	bursts := make([]Burst, 0, cfg.VelocityBursts)
	for i := 0; i < cfg.VelocityBursts; i++ {
		bursts = append(bursts, Burst{
			Day:      int64(rng.Intn(cfg.Days)),
			Start:    int64(rng.Intn(1430)),
			Span:     5,
			Location: int64(leaves[rng.Intn(len(leaves))]),
			Size:     6 + rng.Intn(7),
		})
	}
	return bursts
}

// pickPattern selects a pattern active on the given day, weighted.
func pickPattern(rng *rand.Rand, patterns []Pattern, day int) (Pattern, bool) {
	var total float64
	for _, p := range patterns {
		if p.StartDay <= day {
			total += p.Weight
		}
	}
	if total == 0 {
		return Pattern{}, false
	}
	x := rng.Float64() * total
	for _, p := range patterns {
		if p.StartDay > day {
			continue
		}
		x -= p.Weight
		if x <= 0 {
			return p, true
		}
	}
	return Pattern{}, false
}

// SplitIndex returns the transaction index at the given fraction of the
// dataset (for the before/after time split of the experiments).
func (ds *Dataset) SplitIndex(fraction float64) int {
	return int(float64(ds.Rel.Len()) * fraction)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
