package suppaudit

import "time"

// A used suppression is not stale: the next line genuinely fires detnow
// and the directive absorbs it. Nothing calls stampOK, and the unreached
// directive above it absorbs that finding.
//
//lint:ignore unreached fixture proves live unreached suppressions stay silent
func stampOK() int64 {
	//lint:ignore detnow fixture proves live suppressions stay silent
	return time.Now().UnixNano()
}
