package serve

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/index"
	"repro/internal/relation"
)

// This file is the allocation-free encode path of POST /v1/score. The
// generic encoding/json encoder walks the response with reflection and
// allocates per value; at explain-mode batch sizes (64 tuples × 50 rules ×
// several checks each) that reflection tax dominated the whole request
// (ROADMAP item 1: ~5.2k tx/s explain vs ~100k plain). Score responses are
// instead rendered by hand into a pooled []byte with append — the wire
// format is unchanged (observe_test.go decodes it with encoding/json and
// asserts field-by-field), only the producer is.
//
// The renderer never holds more than one chunk of a response. It takes a
// flush callback and hands it the buffer whenever the buffer holds a whole
// scoreChunk; scoreStream writes that chunk to the connection and gives the
// emptied buffer back. A response that never fills a chunk — every plain
// and explain batch of ordinary size — is written in one piece with an
// exact Content-Length; a larger one (an explain_all batch runs to
// megabytes) goes out chunked, with the same body bytes.
//
// The strings that need JSON escaping are known ahead of time: attribute
// names are escaped once at server construction (Server.attrJSON), rule
// texts once per publish (ruleState.textsJSON). Request ids are minted by
// instrument from a fixed alphabet and never need escaping. Everything else
// is numbers and booleans.

// scoreChunk is the size at which the renderer hands its buffer to the
// flush callback: the unit of a streamed score response, and (plus the one
// rule explanation that crosses it) the most response bytes the daemon holds
// per request. Large enough that a chunk costs one socket write, small
// enough to stay in cache.
const scoreChunk = 64 << 10

// scoreState is the per-request scratch of the score pipeline, pooled so the
// steady-state scoring path allocates only what escapes into the response
// writer. It bundles the stage clock, the first-match slice, the attribution
// buffer of the explain path, a check scratch for explain_all re-derivation
// and the response chunk buffer.
type scoreState struct {
	clock   stageClock
	first   []int32
	attrib  index.AttributionBuffer
	scratch []index.CheckAttribution
	out     []byte
}

var scoreStatePool = sync.Pool{New: func() any { return new(scoreState) }}

// scoreStream is the sink handleScore renders into: appendScoreResponse
// calls flush each time its buffer holds a whole chunk, and handleScore
// calls finish with the rest. Encode and write time interleave per chunk on
// the stage clock.
type scoreStream struct {
	s     *Server
	w     http.ResponseWriter
	clock *stageClock
	sent  bool // the 200 header and at least one chunk are on the wire
}

// flush writes one full chunk (the first one after the 200 header, with no
// Content-Length, so the body goes out chunked) and returns the emptied
// buffer for the renderer to continue in.
func (z *scoreStream) flush(b []byte) []byte {
	z.clock.begin(stageWrite)
	if !z.sent {
		z.sent = true
		z.w.Header().Set("Content-Type", "application/json")
		z.w.WriteHeader(http.StatusOK)
	}
	z.write(b)
	z.clock.begin(stageEncode)
	return b[:0]
}

// finish writes the rest of the response: the whole body, with an exact
// Content-Length, when no chunk was flushed; otherwise the final piece.
func (z *scoreStream) finish(b []byte) {
	z.clock.begin(stageWrite)
	if !z.sent {
		z.s.writeBody(z.w, http.StatusOK, b)
		return
	}
	z.write(b)
}

// write sends a piece of a response whose 200 header is already out. A
// failed write can no longer become an error response, and a chunked body
// that just stopped here would end with the terminating chunk and parse as
// a complete, short answer. So the connection is aborted instead —
// http.ErrAbortHandler makes net/http close it without the terminator —
// and the client sees a transport error, never a truncated 200.
func (z *scoreStream) write(b []byte) {
	if _, err := z.w.Write(b); err != nil {
		z.s.mScoreAborted.Inc()
		if isClientGone(err) {
			z.s.log.Debug("score response aborted: client gone mid-body", "err", err)
		} else {
			z.s.log.Warn("score response aborted: write failed mid-body", "err", err)
		}
		panic(http.ErrAbortHandler)
	}
}

// spill hands dst to flush once it holds a whole chunk. A nil flush renders
// the response into one buffer.
func spill(dst []byte, flush func([]byte) []byte) []byte {
	if flush != nil && len(dst) >= scoreChunk {
		return flush(dst)
	}
	return dst
}

// appendJSONString appends s as a JSON string literal (quotes included),
// escaping per RFC 8259. The fast path — no control characters, quotes,
// backslashes or invalid UTF-8 — is a single append.
func appendJSONString(dst []byte, s string) []byte {
	clean := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			clean = false
			break
		}
	}
	if clean {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				dst = append(dst, '\\', '"')
			case c == '\\':
				dst = append(dst, '\\', '\\')
			case c >= 0x20:
				dst = append(dst, c)
			case c == '\n':
				dst = append(dst, '\\', 'n')
			case c == '\r':
				dst = append(dst, '\\', 'r')
			case c == '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd') // replacement char
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendBool appends the JSON boolean literal.
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// appendCheck appends one checkExplanation object. attrJSON is the
// pre-escaped attribute-name literal table (Server.attrJSON); winJSON is the
// version's pre-escaped windowed-atom table (ruleState.winJSON), indexed by
// CheckAttribution.Win() for window checks.
func appendCheck(dst []byte, attrJSON, winJSON []string, c index.CheckAttribution) []byte {
	dst = append(dst, `{"attr":`...)
	switch {
	case c.Attr == index.ScoreAttr:
		dst = append(dst, `"score","kind":"score"`...)
	case c.IsWindow():
		if w := int(c.Win()); w < len(winJSON) {
			dst = append(dst, winJSON[w]...)
		} else {
			dst = append(dst, `"window"`...) // unreachable: Win indexes st.winSpecs
		}
		dst = append(dst, `,"kind":"window"`...)
	default:
		dst = append(dst, attrJSON[c.Attr]...)
		if c.Categorical {
			dst = append(dst, `,"kind":"ontological"`...)
		} else {
			dst = append(dst, `,"kind":"numeric"`...)
		}
	}
	dst = append(dst, `,"pass":`...)
	dst = appendBool(dst, c.Pass)
	dst = append(dst, `,"margin":`...)
	dst = strconv.AppendInt(dst, c.Margin, 10)
	return append(dst, '}')
}

// appendRuleExplanation appends one ruleExplanation object for rule ra.
func appendRuleExplanation(dst []byte, st *ruleState, attrJSON []string, ra index.RuleAttribution) []byte {
	dst = append(dst, `{"rule":`...)
	dst = strconv.AppendInt(dst, int64(ra.Rule), 10)
	if ra.Rule < len(st.textsJSON) && st.textsJSON[ra.Rule] != `""` { // omitempty
		dst = append(dst, `,"text":`...)
		dst = append(dst, st.textsJSON[ra.Rule]...)
	}
	dst = append(dst, `,"matched":`...)
	dst = appendBool(dst, ra.Matched)
	if ra.Empty {
		dst = append(dst, `,"empty":true`...)
	}
	dst = append(dst, `,"checks":[`...)
	for k, c := range ra.Checks {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = appendCheck(dst, attrJSON, st.winJSON, c)
	}
	return append(dst, ']', '}')
}

// appendExplanation appends one txExplanation object. In the default
// explain mode only the matched rules carry a breakdown (exactly the rules
// the lazy attribution materialized); explainAll re-derives every
// non-matched rule's margins through ev.AttributeRuleAppend using the
// state's scratch, reproducing the eager full-table wire form. Each rule
// explanation is a point where a full chunk may be flushed.
func (s *Server) appendExplanation(dst []byte, flush func([]byte) []byte, st *ruleState, sc *scoreState, a index.TupleAttribution, explainAll bool, rel *relation.Relation, i int) []byte {
	dst = append(dst, `{"flagged":`...)
	dst = appendBool(dst, a.Flagged())
	dst = append(dst, `,"matched":[`...)
	for k, ri := range a.Matched {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(ri), 10)
	}
	dst = append(dst, `],"rules":[`...)
	n := 0
	for _, ra := range a.Rules {
		if !explainAll && !ra.Matched {
			continue
		}
		if explainAll && !ra.Matched && !ra.Empty && ra.Checks == nil {
			ra = st.ev.AttributeRuleAppend(ra.Rule, rel, i, sc.scratch[:0])
		}
		if n > 0 {
			dst = append(dst, ',')
		}
		dst = appendRuleExplanation(dst, st, s.attrJSON, ra)
		dst = spill(dst, flush)
		n++
	}
	return append(dst, ']', '}')
}

// appendScoreResponse renders the whole scoreResponse for the verdicts in
// sc (wire-identical to the encoding/json form of the scoreResponse struct)
// into dst, handing every full chunk to flush on the way (see spill); the
// returned slice holds what was not flushed.
func (s *Server) appendScoreResponse(dst []byte, flush func([]byte) []byte, requestID string, st *ruleState, sc *scoreState, rel *relation.Relation, explain, explainAll bool) []byte {
	matched := 0
	for _, ri := range sc.first[:rel.Len()] {
		if ri != index.NoRule {
			matched++
		}
	}
	if explainAll {
		// Pre-size the re-derivation scratch so encode never reallocates it.
		if n := st.ev.MaxRuleChecks(); cap(sc.scratch) < n {
			sc.scratch = make([]index.CheckAttribution, 0, n)
		}
	}
	dst = append(dst, '{')
	if requestID != "" { // mirror the struct tag's omitempty
		dst = append(dst, `"request_id":`...)
		dst = appendJSONString(dst, requestID)
		dst = append(dst, ',')
	}
	dst = append(dst, `"version":`...)
	dst = strconv.AppendInt(dst, int64(st.version), 10)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(rel.Len()), 10)
	dst = append(dst, `,"matched":`...)
	dst = strconv.AppendInt(dst, int64(matched), 10)
	dst = append(dst, `,"flagged":[`...)
	for i := 0; i < rel.Len(); i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendBool(dst, sc.first[i] != index.NoRule)
		dst = spill(dst, flush)
	}
	dst = append(dst, ']')
	if explain || explainAll {
		dst = append(dst, `,"explanations":[`...)
		for i := 0; i < rel.Len(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = s.appendExplanation(dst, flush, st, sc, sc.attrib.Tuples[i], explainAll, rel, i)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n')
}
