package client

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/api"
	"ioagent/internal/iosim"
)

func clusterTrace(t *testing.T, seed int) []byte {
	t.Helper()
	sim := iosim.New(iosim.Config{
		Seed: int64(seed)*13 + 3, NProcs: 2, UsesMPI: true,
		Exe: fmt.Sprintf("/apps/cluster/job%02d.ex", seed),
	})
	f := sim.OpenShared(fmt.Sprintf("/scratch/cl-%03d.dat", seed), iosim.POSIX, false, nil)
	for i := int64(0); i < 6; i++ {
		f.WriteAt(0, i*4096, 4096)
	}
	f.Close()
	var buf bytes.Buffer
	if err := darshan.Encode(&buf, sim.Finalize()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterSubmitValidatesBeforeKeying: a submission every member would
// refuse — unknown lane, over-long tenant — is refused before the route
// key is computed, so a multi-megabyte body costs the front door nothing
// (neither a decode nor a hash: the memo is never consulted).
func TestClusterSubmitValidatesBeforeKeying(t *testing.T) {
	cl, err := NewCluster([]string{"http://127.0.0.1:1"}) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	body := bytes.Repeat([]byte("POSIX\t-1\t1\tPOSIX_OPENS\t1\t/f\t/\text4\n"), 4<<20/36)
	for name, req := range map[string]api.SubmitRequest{
		"bad lane":         {Lane: "express", Trace: body},
		"over-long tenant": {Tenant: strings.Repeat("t", api.MaxTenantLen+1), Trace: body},
	} {
		_, err := cl.Submit(context.Background(), req)
		if api.ErrorCode(err) != api.CodeBadRequest {
			t.Errorf("%s: err %v, want bad_request", name, err)
		}
	}
	if st := cl.MemoStats(); st.Hits+st.Misses != 0 {
		t.Errorf("front door ran for refused submissions: %+v", st)
	}
}

// TestClusterRouteKeyMemoMatchesRouteKey: through the cluster's memo the
// key is RouteKey's, cold and warm, for accepted bytes (the content
// digest) and for refused ones (the wire-bytes hash) — and only accepted
// bytes are remembered.
func TestClusterRouteKeyMemoMatchesRouteKey(t *testing.T) {
	cl, err := NewCluster([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	good := clusterTrace(t, 1)
	bad := good[:len(good)/2]
	for call := 1; call <= 3; call++ {
		for name, body := range map[string][]byte{"accepted": good, "refused": bad} {
			if got, want := cl.routeKey(body), RouteKey(body); got != want {
				t.Errorf("call %d, %s bytes: routeKey %s, RouteKey %s", call, name, got, want)
			}
		}
	}
	if st := cl.MemoStats(); st.Hits != 2 || st.Misses != 4 || st.Len != 1 {
		t.Errorf("memo %+v, want 2 hits (accepted bytes, calls 2-3), 4 misses, 1 entry", st)
	}
	// The route half of ROADMAP item 3's fence: keying bytes the memo
	// knows is a hash and a lookup, whatever they would decode to.
	if allocs := testing.AllocsPerRun(20, func() { cl.routeKey(good) }); allocs > 0 {
		t.Errorf("routing memoised bytes allocates %.0f objects, want 0", allocs)
	}
}
