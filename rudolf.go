// Package rudolf is a from-scratch Go implementation of RUDOLF, the
// interactive rule refinement system for fraud detection of Milo,
// Novgorodov and Tan ("Interactive Rule Refinement for Fraud Detection",
// EDBT 2018).
//
// RUDOLF maintains a set of rules over a universal transaction relation.
// Each rule is a conjunction of per-attribute conditions — numeric intervals
// and ontology concepts — and the rule set flags the transactions it
// captures as fraudulent. As new transactions arrive and are reported
// fraudulent or verified legitimate, a refinement Session proposes minimal
// rule generalizations (Algorithm 1 of the paper) and rule splits
// (Algorithm 2) to a domain Expert, who can accept, reject, revert parts of,
// or rewrite every proposal.
//
// The package is a facade over the implementation packages: it re-exports
// the types needed to build schemas, ontologies, transaction relations and
// rules, to run refinement sessions with interactive or simulated experts,
// to generate the synthetic financial-institute datasets used by the
// reproduced experiments, and to rerun every figure of the paper's
// evaluation. A minimal session looks like:
//
//	schema := ...                       // rudolf.NewSchema
//	rel := ...                          // transactions with labels
//	rs, _ := rudolf.ParseRules(schema, "time in [18:00,18:05] && amount >= $110")
//	sess := rudolf.NewSession(rs, rudolf.NewAutoAcceptExpert(), rudolf.Options{})
//	stats := sess.Refine(rel)           // generalize + specialize until stable
//	fmt.Print(sess.Rules().Format(schema))
//
// See the examples directory for complete programs, DESIGN.md for the
// architecture and EXPERIMENTS.md for the reproduced evaluation.
package rudolf

import (
	"context"
	"io"
	"net"

	"repro/internal/capture"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/datagen"
	"repro/internal/expert"
	"repro/internal/history"
	"repro/internal/index"
	"repro/internal/ontology"
	"repro/internal/order"
	"repro/internal/relation"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/window"
)

// Data model types.
type (
	// Schema describes the attributes of the universal transaction relation.
	Schema = relation.Schema
	// Attribute is one column: numeric (bounded discrete domain) or
	// categorical (ontology-valued).
	Attribute = relation.Attribute
	// Relation is an append-only transaction relation with labels and ML
	// risk scores.
	Relation = relation.Relation
	// Tuple is one transaction.
	Tuple = relation.Tuple
	// Label is the ground-truth annotation of a transaction.
	Label = relation.Label
	// Domain is a bounded discrete numeric domain.
	Domain = order.Domain
	// Interval is a closed interval over a numeric domain.
	Interval = order.Interval
	// Format renders numeric values (plain, time-of-day, money).
	Format = order.Format
	// Ontology is a concept DAG used by categorical attributes.
	Ontology = ontology.Ontology
	// Concept identifies an ontology node.
	Concept = ontology.Concept
	// OntologyBuilder assembles ontologies.
	OntologyBuilder = ontology.Builder
)

// Rule language types.
type (
	// Rule is a conjunction of one condition per attribute.
	Rule = rules.Rule
	// RuleSet is a disjunction of rules.
	RuleSet = rules.Set
	// Condition restricts one attribute.
	Condition = rules.Condition
)

// Refinement types.
type (
	// Session drives interactive rule refinement.
	Session = core.Session
	// Options configures a session (weights, top-k, clustering, cost model).
	Options = core.Options
	// Expert is the human (or simulated human) in the loop.
	Expert = core.Expert
	// GenProposal is a proposed rule generalization.
	GenProposal = core.GenProposal
	// GenDecision is the expert's answer to a generalization proposal.
	GenDecision = core.GenDecision
	// SplitProposal is a proposed rule split.
	SplitProposal = core.SplitProposal
	// SplitDecision is the expert's answer to a split proposal.
	SplitDecision = core.SplitDecision
	// RoundStats summarizes a refinement round.
	RoundStats = core.RoundStats
	// Weights are the α/β/γ benefit coefficients of the cost model.
	Weights = cost.Weights
)

// Dataset generation types.
type (
	// DataConfig parameterizes a synthetic financial-institute dataset.
	DataConfig = datagen.Config
	// Dataset is a generated dataset with ground truth and planted attack
	// patterns.
	Dataset = datagen.Dataset
)

// Label values.
const (
	Unlabeled  = relation.Unlabeled
	Fraud      = relation.Fraud
	Legitimate = relation.Legitimate
)

// Attribute kinds.
const (
	Numeric     = relation.Numeric
	Categorical = relation.Categorical
)

// Numeric value formats.
const (
	FormatPlain     = order.FormatPlain
	FormatTimeOfDay = order.FormatTimeOfDay
	FormatMinutes   = order.FormatMinutes
	FormatMoney     = order.FormatMoney
)

// NewSchema builds a schema from attributes; see relation.NewSchema.
func NewSchema(attrs ...Attribute) (*Schema, error) { return relation.NewSchema(attrs...) }

// MustSchema is NewSchema for statically known-good schemas.
func MustSchema(attrs ...Attribute) *Schema { return relation.MustSchema(attrs...) }

// NewDomain returns the discrete numeric domain [min, max].
func NewDomain(min, max int64) Domain { return order.NewDomain(min, max) }

// NewRelation returns an empty transaction relation over the schema.
func NewRelation(s *Schema) *Relation { return relation.New(s) }

// ReadCSV parses a relation from CSV (as written by Relation.WriteCSV).
func ReadCSV(s *Schema, r io.Reader) (*Relation, error) { return relation.ReadCSV(s, r) }

// ReadSchemaJSON parses a schema (with its ontologies) from the JSON form
// written by Schema.WriteJSON, so datasets are self-describing.
func ReadSchemaJSON(r io.Reader) (*Schema, error) { return relation.ReadSchemaJSON(r) }

// NewOntology starts building an ontology; the first concept added is ⊤.
func NewOntology(name string) *OntologyBuilder { return ontology.NewBuilder(name) }

// PaperTypeOntology returns the transaction-type hierarchy of the paper's
// Figure 1, including the cross-cutting "With code"/"No code" concepts.
func PaperTypeOntology() *Ontology { return ontology.PaperTypeOntology() }

// ParseRule parses one rule in the textual form produced by Rule.Format,
// e.g. `time in [18:00,18:05] && amount >= $110 && location <= "Gas Station"`.
func ParseRule(s *Schema, text string) (*Rule, error) { return rules.Parse(s, text) }

// MustParseRule is ParseRule for rule literals known to be valid.
func MustParseRule(s *Schema, text string) *Rule { return rules.MustParse(s, text) }

// ParseRules parses several rules into a rule set.
func ParseRules(s *Schema, texts ...string) (*RuleSet, error) {
	out := rules.NewSet()
	for _, t := range texts {
		r, err := rules.Parse(s, t)
		if err != nil {
			return nil, err
		}
		out.Add(r)
	}
	return out, nil
}

// NewRuleSet returns a rule set over the given rules.
func NewRuleSet(rs ...*Rule) *RuleSet { return rules.NewSet(rs...) }

// NumericCond returns the condition A ∈ iv for a numeric attribute.
func NumericCond(iv Interval) Condition { return rules.NumericCond(iv) }

// ConceptCond returns the condition A ≤ c for a categorical attribute.
func ConceptCond(c Concept) Condition { return rules.ConceptCond(c) }

// PreviewEdit computes the Definition 3.1 deltas of replacing the rule set
// old by new over rel — the what-if view a rule-editing UI shows before a
// change is committed: ΔF (change in captured frauds), ΔL (change in
// excluded legitimate transactions) and ΔR (change in excluded unlabeled
// transactions), each positive when the edit helps.
func PreviewEdit(old, new *RuleSet, rel *Relation) (dF, dL, dR int) {
	return cost.Deltas(old, new, rel)
}

// NormalizeRules tidies a rule set without changing Φ(I): subsumed rules
// are dropped and adjacent numeric fragments re-merge. Returns the number
// of rules removed.
func NormalizeRules(s *Schema, rs *RuleSet) int { return rules.Normalize(s, rs) }

// NewCommitteeExpert aggregates several experts by majority vote (the paper
// ran its study with 8 experts).
func NewCommitteeExpert(members ...Expert) Expert { return expert.NewCommittee(members...) }

// ReadRules parses a rule set from a reader, one rule per line.
func ReadRules(r io.Reader, s *Schema) (*RuleSet, error) { return rules.ReadSet(r, s) }

// WriteRules writes a rule set, one rule per line.
func WriteRules(w io.Writer, s *Schema, rs *RuleSet) error { return rules.WriteSet(w, s, rs) }

// NewSession starts a refinement session over an existing rule set (which
// is cloned) guided by the given expert.
func NewSession(rs *RuleSet, e Expert, opts Options) *Session {
	return core.NewSession(rs, e, opts)
}

// DefaultWeights returns α = β = γ = 1, the paper's default.
func DefaultWeights() Weights { return cost.DefaultWeights() }

// NewAutoAcceptExpert returns the expert that accepts every proposal — the
// fully-automatic RUDOLF⁻ variant of the paper's Section 5.
func NewAutoAcceptExpert() Expert { return &expert.AutoAccept{} }

// NewOracleExpert returns a simulated trained expert who knows the true
// attack patterns behind the frauds (one rule per pattern) and behaves like
// the paper's running-example expert: accepting pattern-consistent
// proposals, rounding boundaries to the true pattern, rejecting stretches of
// unrelated rules, and trimming dead split branches.
func NewOracleExpert(truth *RuleSet) Expert { return expert.NewOracle(truth) }

// NewNoviceExpert wraps an expert with the decision noise of the paper's
// student volunteers.
func NewNoviceExpert(inner Expert, seed int64) Expert { return expert.NewNovice(inner, seed) }

// NewInteractiveExpert returns a terminal-driven expert reading decisions
// from in and writing prompts to out (used by cmd/rudolf).
func NewInteractiveExpert(in io.Reader, out io.Writer) Expert {
	return expert.NewInteractive(in, out)
}

// NewRecordingExpert wraps an expert with an audit trail: every proposal
// and decision is written to out, one line per interaction.
func NewRecordingExpert(inner Expert, out io.Writer) Expert {
	return expert.NewRecording(inner, out)
}

// Explanation explains one rule's verdict on one transaction.
type Explanation = rules.Explanation

// Explain reports, for each rule in the set, whether it captures
// transaction i of rel and which conditions held or failed — the "why was
// this flagged?" view for alert triage.
func Explain(rs *RuleSet, rel *Relation, i int) []Explanation {
	return rules.Explain(rs, rel, i)
}

// GenerateDataset synthesizes a financial-institute dataset with planted
// attack patterns, per DESIGN.md's substitution for the paper's proprietary
// data.
func GenerateDataset(cfg DataConfig) *Dataset { return datagen.Generate(cfg) }

// InitialRules builds the FI's incumbent (imperfect) rule set for a
// generated dataset; minRules pads the set to FI-sized rule counts.
func InitialRules(ds *Dataset, minRules int, seed int64) *RuleSet {
	return datagen.InitialRules(ds, minRules, seed)
}

// DatasetClusterer returns the leader clusterer configured for the
// synthetic FI schema (daily-recurring attack windows).
func DatasetClusterer() cluster.Algorithm { return datagen.Clusterer() }

// Evaluator is a compiled, parallel rule-set evaluator for large relations.
type Evaluator = index.Evaluator

// Decision-provenance types of the compiled evaluator (see
// Evaluator.AttributeTuple and Evaluator.EvalAttributedLazyInto): the per-rule,
// per-condition breakdown — with signed margins to the decision boundary —
// that the serving layer's explain mode and cmd/rudolf's -explain flag
// share. A check passes if and only if its margin is >= 0.
type (
	// TupleAttribution is one transaction's full decision provenance.
	TupleAttribution = index.TupleAttribution
	// RuleAttribution is one rule's verdict with its check breakdown.
	RuleAttribution = index.RuleAttribution
	// CheckAttribution is one condition's pass/fail and signed margin.
	CheckAttribution = index.CheckAttribution
	// AttributionBuffer is reusable caller-owned storage for the evaluator's
	// EvalAttributedLazyInto: flat arenas that make
	// repeated attribution allocation-free. See the ownership rules on
	// index.AttributionBuffer (results alias the buffer until the next call).
	AttributionBuffer = index.AttributionBuffer
)

// ScoreAttr is the CheckAttribution.Attr value marking a rule's
// minimum-score threshold check.
const ScoreAttr = index.ScoreAttr

// WindowAttr is the top of the CheckAttribution.Attr range marking windowed
// (sliding-window aggregate) condition checks — a check satisfies
// IsWindow() when Attr <= WindowAttr; CheckAttribution.Win() then
// indexes the evaluator's WindowSpecs.
const WindowAttr = index.WindowAttr

// WindowSpec identifies one sliding-window aggregate — COUNT, SUM or
// DISTINCT over a key attribute and a time window (the "COUNT(user, 10m)"
// atoms of the rule language).
type WindowSpec = window.Spec

// WindowCond is one windowed condition of a rule (see Rule.Windows): a
// WindowSpec plus the interval its aggregate must fall in.
type WindowCond = rules.WindowCond

// FormatWindowAtom renders a window spec in the rule language's textual
// aggregate-atom form, e.g. "COUNT(user, 10m)".
func FormatWindowAtom(s *Schema, sp WindowSpec) string { return rules.FormatWindowAtom(s, sp) }

// History is a versioned store of rule-set snapshots with the modifications
// between them (the FIs of the paper keep exactly such change histories).
type History = history.Store

// HistoryVersion is one committed rule-set version.
type HistoryVersion = history.Version

// Modification is one logged rule change (see Session.Log).
type Modification = core.Modification

// NewHistory returns an empty rule-set history over the schema.
func NewHistory(s *Schema) *History { return history.NewStore(s) }

// ReadHistoryJSON loads a history written by History.WriteJSON.
func ReadHistoryJSON(r io.Reader, s *Schema) (*History, error) { return history.ReadJSON(r, s) }

// CompileRules snapshots a rule set into a compiled evaluator whose Eval
// runs conditions in selectivity order on parallel workers — use it instead
// of RuleSet.Eval when classifying large relations repeatedly.
func CompileRules(s *Schema, rs *RuleSet) *Evaluator { return index.Compile(s, rs) }

// CaptureCache maintains Φ(I) — the captured-transaction set — incrementally
// across rule edits: one compiled capture bitset per rule plus their running
// union, so editing one rule re-evaluates only that rule instead of
// re-scanning the whole set. Sessions use one internally for every Stats and
// capture query of the refinement loop; rule-management UIs evaluating edit
// previews over large transaction logs can Bind their own.
type CaptureCache = capture.Cache

// NewCaptureCache returns an unbound incremental capture cache; Bind it to a
// relation and rule set before querying, and notify it (RuleAdded,
// RuleReplaced, RuleRemoved) of every rule-set mutation.
func NewCaptureCache() *CaptureCache { return capture.New() }

// Online serving types (see internal/serve and cmd/rudolfd).
type (
	// Server is the online scoring daemon: an atomically hot-swappable
	// compiled rule set behind HTTP endpoints for scoring, rule swaps,
	// feedback ingestion, in-place refinement and telemetry.
	Server = serve.Server
	// ServerConfig parameterizes a Server; only Schema is required.
	ServerConfig = serve.Config
	// TelemetryRegistry collects counters, gauges and histograms served in
	// Prometheus text format on the daemon's /metrics endpoint.
	TelemetryRegistry = telemetry.Registry
)

// NewServer builds a scoring daemon and publishes cfg.Rules as version 1.
// Mount its Handler on any http.Server, or use Serve for the full lifecycle
// (listen, serve, graceful drain).
func NewServer(cfg ServerConfig) (*Server, error) { return serve.New(cfg) }

// Serve runs a scoring daemon on addr until ctx is canceled, then drains
// gracefully: readiness flips to 503, in-flight requests finish (bounded by
// cfg.DrainTimeout), and the listener closes.
func Serve(ctx context.Context, addr string, cfg ServerConfig) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.Serve(ctx, ln)
}

// NewTelemetryRegistry returns an empty metrics registry, for embedders that
// want the daemon's metrics merged into their own exposition page.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// Tracing types (see internal/trace and DESIGN.md §10).
type (
	// Tracer records hierarchical spans into a bounded ring buffer. Pass one
	// in Options.Tracer to trace a refinement session, or read the serving
	// daemon's via Server.Tracer. A nil Tracer is valid and free: every span
	// operation is a zero-allocation no-op.
	Tracer = trace.Tracer
	// Span is one traced operation; the zero Span is inert.
	Span = trace.Span
	// TraceRecord is one completed span or instant, as returned by
	// Tracer.Snapshot and consumed by the exporters.
	TraceRecord = trace.Record
)

// NewTracer returns a tracer whose ring holds up to capacity completed spans
// (0 means the package default). Oldest spans are dropped (and counted) when
// the ring overflows.
func NewTracer(capacity int) *Tracer { return trace.New(trace.Options{Capacity: capacity}) }

// WriteChromeTrace writes the tracer's recorded spans as a Chrome
// trace_event JSON document loadable in chrome://tracing and
// ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, t *Tracer) error { return trace.WriteChromeTo(w, t) }

// WriteTraceJSONL writes trace records as JSON Lines, one span per line —
// the grep/jq-friendly export.
func WriteTraceJSONL(w io.Writer, recs []TraceRecord) error { return trace.WriteJSONL(w, recs) }
