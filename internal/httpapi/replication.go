package httpapi

// Replication wiring: the replica wire protocol and the failover
// admin endpoint ride on the same mux as the market API, so one
// listener serves buyers and peers alike. The endpoints are mounted
// raw — outside the admission limiter and chaos middleware — because
// shedding a frame shipment would only add replication lag, and the
// shipping hop already has its own fault injection on the sender.

import (
	"net/http"

	"github.com/datamarket/mbp/internal/replica"
)

// WithReplication mounts the replication endpoints for n:
//
//	POST /replica/frames    — WAL frames from the leader
//	GET  /replica/status    — role, epoch, frame cursor, stream digest
//	POST /admin/promote     — manual failover: make this node the leader
//
// and folds the node's posture (role, epoch, per-target lag) into
// /debug/health.
func WithReplication(n *replica.Node) Option {
	return func(c *config) { c.replica = n }
}

// mountReplication attaches the replica wire protocol to the mux.
func (c *config) mountReplication(mux *http.ServeMux) {
	mux.HandleFunc("POST /replica/frames", c.replica.HandleFrames)
	mux.HandleFunc("GET /replica/status", c.replica.HandleStatus)
	mux.HandleFunc("POST /admin/promote", c.replica.HandlePromote)
}
