package main

import "testing"

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "client.roundtrip", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "serve.handler", Start: 10, End: 30, Parent: unlinked, Req: 1},
		{Name: "replay", Start: 200, End: 300, Parent: -1, Req: 1},
		{Name: "relation.build", Start: 210, End: 230, Parent: 2, Req: 1},
		{Name: "index.eval_first", Start: 220, End: 250, Parent: 2, Req: 1},     // overlaps its sibling
		{Name: "wal.append", Start: 290, End: 320, Parent: 2, Req: 1},           // runs past its parent
		{Name: "serve.handler", Start: 500, End: 510, Parent: unlinked, Req: 9}, // no client span
	}
	link(spans)
	if spans[1].Parent != 0 {
		t.Errorf("handler span linked to %d, want its request's client span 0", spans[1].Parent)
	}
	if spans[6].Parent != -1 {
		t.Errorf("handler span without a client span linked to %d, want -1", spans[6].Parent)
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{
		"client.roundtrip": 80,      // 100 - handler's 20
		"serve.handler":    20 + 10, // leaves
		"replay":           50,      // 100 - [210,250) - [290,300)
		"relation.build":   20,
		"index.eval_first": 30,
		"wal.append":       30,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	dur, n := totals(spans)
	if dur["serve.handler"] != 30 || n["serve.handler"] != 2 {
		t.Errorf("totals of serve.handler = %d over %d spans", dur["serve.handler"], n["serve.handler"])
	}
}
