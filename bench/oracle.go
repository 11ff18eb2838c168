package main

import (
	"encoding/json"
	"fmt"

	"tsppr/internal/engine"
	"tsppr/internal/rec"
	"tsppr/internal/seq"
)

// Wire shapes of the documented API (cmd/rrc-server's package comment).
// The harness declares its own mirrors: the server's types live in
// package main and cannot be imported.
type recommendReply struct {
	Items    []int     `json:"items"`
	Scores   []float64 `json:"scores"`
	Degraded bool      `json:"degraded,omitempty"`
	Error    string    `json:"error,omitempty"` // set on a failed batch entry
}

type batchReply struct {
	Responses []recommendReply `json:"responses"`
}

type recommendUserBody struct {
	User int `json:"user"`
	N    int `json:"n"`
}

type consumeBody struct {
	User int `json:"user"`
	Item int `json:"item"`
}

type consumeReply struct {
	LSN    uint64 `json:"lsn"`
	Window int    `json:"window"`
}

type batchBody struct {
	Requests []struct {
		User    int   `json:"user"`
		History []int `json:"history"`
		N       int   `json:"n"`
	} `json:"requests"`
}

// oracle recomputes what the fleet must answer. It holds one client's
// mirror of server state — the fixture windows plus every consume that
// client had acknowledged — and ranks with the same engine over the
// same model, so items and scores must match exactly: float64 survives
// the JSON round trip bit for bit.
type oracle struct {
	fx    *fixture
	eng   *engine.Engine
	acked map[int][]seq.Item // this client's acknowledged consumes, per user
	dst   []rec.Scored
}

func newOracle(fx *fixture, eng *engine.Engine) *oracle {
	return &oracle{fx: fx, eng: eng, acked: map[int][]seq.Item{}}
}

// ack records a consume the fleet acknowledged with 200.
func (o *oracle) ack(user int, item seq.Item) {
	o.acked[user] = append(o.acked[user], item)
}

// window rebuilds user's window: fixture events, then — unless the
// request is stateless — the consumes acknowledged since.
func (o *oracle) window(user int, withAcks bool) *seq.Window {
	w := seq.NewWindow(windowCap)
	for _, it := range o.fx.window(user) {
		w.Push(it)
	}
	if withAcks {
		for _, it := range o.acked[user] {
			w.Push(it)
		}
	}
	return w
}

// expect ranks user's Top-N over w. The slice is reused by the next call.
func (o *oracle) expect(user int, w *seq.Window) []rec.Scored {
	o.dst = o.eng.Recommend(&rec.Context{User: user, Window: w, Omega: omega}, topN, o.dst[:0])
	return o.dst
}

func sameAnswer(got recommendReply, want []rec.Scored) error {
	if got.Error != "" || got.Degraded {
		return fmt.Errorf("error %q degraded %v", got.Error, got.Degraded)
	}
	if len(got.Items) != len(want) || len(got.Scores) != len(want) {
		return fmt.Errorf("%d items, %d scores, want %d", len(got.Items), len(got.Scores), len(want))
	}
	for i, sc := range want {
		if got.Items[i] != int(sc.Item) || got.Scores[i] != sc.Score {
			return fmt.Errorf("rank %d: got (%d, %v), want (%d, %v)", i, got.Items[i], got.Scores[i], sc.Item, sc.Score)
		}
	}
	return nil
}

// check compares a 200 reply to req with the oracle's own answer.
func (o *oracle) check(req request, body []byte) error {
	if req.users != nil {
		var reply batchReply
		if err := json.Unmarshal(body, &reply); err != nil {
			return err
		}
		if len(reply.Responses) != len(req.users) {
			return fmt.Errorf("batch: %d responses for %d entries", len(reply.Responses), len(req.users))
		}
		for i, u := range req.users {
			// A batch entry is stateless: its history is the fixture
			// window, whatever the user has consumed since.
			if err := sameAnswer(reply.Responses[i], o.expect(u, o.window(u, false))); err != nil {
				return fmt.Errorf("batch entry %d user %d: %w", i, u, err)
			}
		}
		return nil
	}
	var reply recommendReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	if err := sameAnswer(reply, o.expect(req.user, o.window(req.user, true))); err != nil {
		return fmt.Errorf("user %d: %w", req.user, err)
	}
	return nil
}
