package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/window"
)

// scoreBodies is how many distinct score bodies a workload cycles through. A
// prime at least 512, so every-16th answer sampling visits every body.
const scoreBodies = 523

// checkEvery is the answer-sampling stride: every checkEvery-th response is
// verified against the interpreted oracle.
const checkEvery = 16

// plantEvery-th transaction of the traffic is a fraud the analyst knows.
const plantEvery = 16

// probeTx is the size of the velocity probe burst: one request of probeTx
// transactions at one location and one minute, with distinct amounts.
const probeTx = 8

// scoreBody is one pre-rendered POST /v1/score body with the tuples it
// encodes. On the velocity workload every request carries its own minute of
// day, patched into a copy of Raw at the TimeOff offsets (five bytes,
// "HH:MM") just before sending.
type scoreBody struct {
	Raw     []byte
	Tuples  []relation.Tuple
	Scores  []int16
	TimeOff []int
}

// feedbackChunk is one POST /v1/feedback body covering rows [Lo, Hi) of the
// feedback relation.
type feedbackChunk struct {
	Raw    []byte
	Lo, Hi int
}

// inputs is everything a run sends, generated before any clock starts.
type inputs struct {
	w         workload
	schema    *relation.Schema
	rules     *rules.Set // incumbent set the daemon boots with
	bodies    []scoreBody
	probe     scoreBody          // velocity only
	winSpecs  []window.Spec      // of windowAtoms, on every workload (the traced run times the window kernel everywhere)
	winThresh []int64            // velocity only: threshold of the published atom on winSpecs[i]
	winTexts  []string           // velocity only: its rule text
	feedback  []feedbackChunk    // cycles × postsPerCycle
	fbRel     *relation.Relation // the analyst dataset; chunks index into it
	// scoreTotal is the number of scheduled score requests (warm + closed +
	// open); the velocity workload spreads them over the day.
	scoreTotal int
}

// windowAtoms are the velocity workload's three windowed conditions. Their
// thresholds are set above anything the run can reach (see newInputs), so
// every verdict is decided by the 50 plain rules and does not depend on the
// order in which concurrent requests reach the window store; the store is
// still observed, stamped and logged for every transaction, which is the
// cost this workload exists to measure. Exact aggregates are checked by the
// probe burst instead.
var windowAtoms = []string{
	"COUNT(location, 10m)",
	"SUM(amount, location, 60m)",
	"DISTINCT(amount, location, 30m)",
}

// newInputs generates a workload's inputs. The scoring traffic is drawn from
// seed; the incumbent rules and the labelled feedback from analystSeed.
func newInputs(w workload, seed int64, seconds int) (*inputs, error) {
	days := 0 // generator default
	if w.Velocity {
		days = 1 // the minute-of-day clock must never wrap
	}
	cycles := w.cycles(seconds)
	fbRows := cycles * postsPerCycle * w.ChunkTx
	if fbRows > analystRows {
		return nil, fmt.Errorf("%s sends %d feedback rows, the analyst dataset has %d", w.Name, fbRows, analystRows)
	}
	analyst := datagen.Generate(datagen.Config{Size: analystRows, Seed: analystSeed, Days: days})
	in := &inputs{w: w, schema: analyst.Schema, fbRel: analyst.Rel}
	in.rules = datagen.InitialRules(analyst, w.Rules, analystSeed)
	in.scoreTotal = w.WarmCount + w.closedCount(seconds)
	if !w.Concurrent {
		in.scoreTotal += w.openCount(seconds)
	}

	// The traffic has its own planted attacks, which the analyst's rules know
	// nothing about; left at that, nearly every expected verdict is "clear"
	// and a daemon that flags nothing passes. So every plantEvery-th
	// transaction is one of the analyst's reported frauds, about half of
	// which the incumbent rules capture.
	traffic := datagen.Generate(datagen.Config{Size: scoreBodies * w.Batch, Seed: seed, Days: days})
	frauds := analyst.Rel.Indices(relation.Fraud)
	rng := rand.New(rand.NewSource(seed))
	timeAttr := in.schema.TimeAttr()
	in.bodies = make([]scoreBody, scoreBodies)
	for b := range in.bodies {
		body := scoreBody{}
		for i := b * w.Batch; i < (b+1)*w.Batch; i++ {
			rel, row := traffic.Rel, i
			if i%plantEvery == 0 {
				rel, row = analyst.Rel, frauds[rng.Intn(len(frauds))]
			}
			body.Tuples = append(body.Tuples, rel.Tuple(row))
			body.Scores = append(body.Scores, rel.Score(row))
		}
		in.bodies[b] = renderScoreBody(in.schema, body, w.Explain, timeAttr)
	}

	for _, atom := range windowAtoms {
		r, err := rules.Parse(in.schema, atom+" >= 1")
		if err != nil {
			return nil, fmt.Errorf("windowed atom %q: %w", atom, err)
		}
		in.winSpecs = append(in.winSpecs, r.Windows()[0].Spec)
	}
	if w.Velocity {
		if err := in.addWindowRules(); err != nil {
			return nil, err
		}
		in.probe = in.makeProbe(traffic.Rel.Tuple(0))
	}

	for lo := 0; lo < fbRows; lo += w.ChunkTx {
		in.feedback = append(in.feedback, feedbackChunk{
			Raw: renderFeedback(in.schema, in.fbRel, lo, lo+w.ChunkTx),
			Lo:  lo, Hi: lo + w.ChunkTx,
		})
	}
	return in, nil
}

// addWindowRules appends the three windowed atoms with thresholds no run can
// reach: more events than the whole run places in the window across all
// locations, counting every probe burst and a full batch of slack per
// connection for reordering.
func (in *inputs) addWindowRules() error {
	perMinute := int64(in.scoreTotal*in.w.Batch/1440 + 1)
	slack := int64(16*probeTx + 4*in.w.Batch*nproc())
	amount := in.schema.Attr(in.schema.MustIndex("amount")).Domain
	for i, sp := range in.winSpecs {
		events := perMinute*(sp.Window+2) + slack
		var thresh int64
		switch sp.Agg {
		case window.Count:
			thresh = events
		case window.Sum:
			thresh = events * amount.Max
		default: // DISTINCT(amount, ...) can never exceed the amount domain
			thresh = amount.Max - amount.Min + 2
		}
		text := fmt.Sprintf("%s >= %d", windowAtoms[i], thresh)
		r, err := rules.Parse(in.schema, text)
		if err != nil {
			return fmt.Errorf("windowed atom %q: %w", text, err)
		}
		in.rules.Add(r)
		in.winThresh = append(in.winThresh, thresh)
		in.winTexts = append(in.winTexts, text)
	}
	return nil
}

// makeProbe builds the probe burst from one traffic tuple: probeTx copies at
// its location with distinct amounts.
func (in *inputs) makeProbe(base relation.Tuple) scoreBody {
	amount := in.schema.MustIndex("amount")
	body := scoreBody{}
	for j := 0; j < probeTx; j++ {
		t := base.Clone()
		t[amount] = int64(100 + j)
		body.Tuples = append(body.Tuples, t)
		body.Scores = append(body.Scores, 500)
	}
	return renderScoreBody(in.schema, body, true, in.schema.TimeAttr())
}

// minuteFor spreads the scheduled score requests over the day in send order.
func (in *inputs) minuteFor(k int) int64 {
	m := int64(k) * 1440 / int64(in.scoreTotal)
	if m > 1439 {
		m = 1439
	}
	return m
}

// bodyFor returns the bytes of score request k, using buf as scratch on the
// velocity workload (where the request's minute is patched in).
func (in *inputs) bodyFor(k int, buf []byte) []byte {
	b := &in.bodies[k%len(in.bodies)]
	if !in.w.Velocity {
		return b.Raw
	}
	return patchTime(b, in.minuteFor(k), buf)
}

func patchTime(b *scoreBody, minute int64, buf []byte) []byte {
	buf = append(buf[:0], b.Raw...)
	var hhmm [5]byte
	hhmm[0], hhmm[1] = byte('0'+minute/60/10), byte('0'+minute/60%10)
	hhmm[2] = ':'
	hhmm[3], hhmm[4] = byte('0'+minute%60/10), byte('0'+minute%60%10)
	for _, off := range b.TimeOff {
		copy(buf[off:], hhmm[:])
	}
	return buf
}

// relFor returns the tuples of score request k as a relation, for the oracle.
func (in *inputs) relFor(k int) *relation.Relation {
	b := &in.bodies[k%len(in.bodies)]
	minute := int64(-1)
	if in.w.Velocity {
		minute = in.minuteFor(k)
	}
	return bodyRelation(in.schema, b, minute)
}

// bodyRelation materialises a body's tuples, with the time attribute set to
// minute when minute >= 0.
func bodyRelation(schema *relation.Schema, b *scoreBody, minute int64) *relation.Relation {
	rel := relation.New(schema)
	for i, t := range b.Tuples {
		if minute >= 0 {
			t = t.Clone()
			t[schema.TimeAttr()] = minute
		}
		rel.MustAppend(t, relation.Unlabeled, b.Scores[i])
	}
	return rel
}

func appendJSONString(dst []byte, s string) []byte {
	q, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Go string always marshals
	}
	return append(dst, q...)
}

// appendTx renders one transaction in the wire form the daemon documents:
// every attribute as the schema's formatted text. It returns the offset of
// the time attribute's text, or -1.
func appendTx(dst []byte, schema *relation.Schema, t relation.Tuple, score int16, label string, timeAttr int) ([]byte, int) {
	timeOff := -1
	dst = append(dst, `{"attrs":{`...)
	for a := 0; a < schema.Arity(); a++ {
		if a > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, schema.Attr(a).Name)
		dst = append(dst, ':')
		if a == timeAttr {
			timeOff = len(dst) + 1 // past the opening quote
		}
		dst = appendJSONString(dst, schema.FormatValue(a, t[a]))
	}
	dst = append(dst, `},"score":`...)
	dst = strconv.AppendInt(dst, int64(score), 10)
	if label != "" {
		dst = append(dst, `,"label":"`...)
		dst = append(dst, label...)
		dst = append(dst, '"')
	}
	return append(dst, '}'), timeOff
}

func renderScoreBody(schema *relation.Schema, b scoreBody, explain bool, timeAttr int) scoreBody {
	raw := []byte(`{"transactions":[`)
	for i, t := range b.Tuples {
		if i > 0 {
			raw = append(raw, ',')
		}
		var off int
		raw, off = appendTx(raw, schema, t, b.Scores[i], "", timeAttr)
		if off >= 0 {
			b.TimeOff = append(b.TimeOff, off)
		}
	}
	raw = append(raw, ']')
	if explain {
		raw = append(raw, `,"explain_all":true`...)
	}
	b.Raw = append(raw, '}')
	return b
}

func wireLabel(l relation.Label) string {
	switch l {
	case relation.Fraud:
		return "fraud"
	case relation.Legitimate:
		return "legit"
	default:
		return "unlabeled"
	}
}

func renderFeedback(schema *relation.Schema, rel *relation.Relation, lo, hi int) []byte {
	raw := []byte(`{"transactions":[`)
	for i := lo; i < hi; i++ {
		if i > lo {
			raw = append(raw, ',')
		}
		raw, _ = appendTx(raw, schema, rel.Tuple(i), rel.Score(i), wireLabel(rel.Label(i)), -1)
	}
	return append(raw, `]}`...)
}
