package fleet

import "errors"

// ErrReplicaDown is the sentinel matched by errors.Is for every replica
// failure the fleet surfaces: a failed dial, a transport error mid-query
// (which also trips that replica's breaker), or a query started while fewer
// than two replicas are up. The concrete error is always a *ReplicaDownError
// naming the replica.
var ErrReplicaDown = errors.New("fleet: replica down")

// ReplicaDownError names the replica behind an ErrReplicaDown failure.
type ReplicaDownError struct {
	Addr string // replica address as given to Dial
	Err  error  // underlying transport or dial failure
}

func (e *ReplicaDownError) Error() string {
	return "fleet: replica " + e.Addr + " down: " + e.Err.Error()
}

func (e *ReplicaDownError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrReplicaDown) match without losing the
// underlying cause chain.
func (e *ReplicaDownError) Is(target error) bool { return target == ErrReplicaDown }
