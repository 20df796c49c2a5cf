package main

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
)

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// sortedJoin renders parts in sorted order, so that a signature does not
// depend on the order the seed put the operations in.
func sortedJoin(parts []string) string {
	s := append([]string(nil), parts...)
	sort.Strings(s)
	return strings.Join(s, ";")
}

// hashBodies fingerprints request/response pairs independent of order.
func hashBodies(reqs, resps [][]byte) string {
	pairs := make([]string, len(reqs))
	for i := range reqs {
		pairs[i] = string(reqs[i]) + "\x00" + string(resps[i])
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sortedJoin(pairs))))
}
