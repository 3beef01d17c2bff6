package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		target  string
		scale   int
		n       int
		wantErr bool
	}{
		{"bfs", 1, 4, false},
		{"bfs", -1, 4, true},   // negative region size
		{"norep", -1, 4, true}, // negative baseline region
		{"bfs", 1, 3, true},    // below 3f+1 with f ≥ 1
		{"bfs", 0, 4, true},    // no room for the benchmark's files
		{"nfs", 1, 4, true},
	} {
		err := checkFlags(tc.target, tc.scale, clusterOptions(tc.n, tc.scale))
		if (err != nil) != tc.wantErr {
			t.Errorf("-target %s -scale %d -n %d: err = %v, want error %v",
				tc.target, tc.scale, tc.n, err, tc.wantErr)
		}
	}
}
