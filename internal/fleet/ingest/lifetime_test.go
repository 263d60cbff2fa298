package ingest_test

import (
	"bytes"
	"reflect"
	"testing"

	"ioagent/internal/darshan"
	"ioagent/internal/fleet/ingest"
	"ioagent/internal/scenario"
)

// TestDecodeBodyLifetime: a decoded trace owns its memory. The node
// recycles a buffered submission's body once the pool has taken it, so
// a log decoded from the body — the binary rendering and both text
// renderings — must be the same log, with the same content digest,
// after every byte of the body has been overwritten.
func TestDecodeBodyLifetime(t *testing.T) {
	var counterLog *darshan.Log
	var dxtText []byte
	for _, sc := range scenario.Matrix() {
		switch sc.Name {
		case "shared-file-contention":
			_, counterLog = sc.Build()
		case "shared-file-contention-dxt":
			dxtText, _ = sc.Build()
		}
	}
	var binary bytes.Buffer
	if err := darshan.Encode(&binary, counterLog); err != nil {
		t.Fatal(err)
	}
	text, err := darshan.TextString(counterLog)
	if err != nil {
		t.Fatal(err)
	}
	for _, rendering := range []struct {
		name string
		body []byte
	}{
		{"binary", binary.Bytes()},
		{"parser text", []byte(text)},
		{"dxt text", dxtText},
	} {
		body := bytes.Clone(rendering.body)
		log, digest, err := ingest.Decode(body)
		if err != nil {
			t.Fatalf("%s: %v", rendering.name, err)
		}
		for i := range body {
			body[i] = 0xff
		}
		want, wantDigest, err := ingest.Decode(rendering.body)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log, want) {
			t.Errorf("%s: the decoded log changed when its body was overwritten", rendering.name)
		}
		if got, err := darshan.ContentDigest(log); err != nil || got != wantDigest || digest != wantDigest {
			t.Errorf("%s: digest after overwrite %s (%v), at decode %s, want %s", rendering.name, got, err, digest, wantDigest)
		}
	}
}

// TestLogHoldsNoBytesBodyLifetime: nothing reachable from a darshan.Log
// can alias a body buffer — no byte slice, no unsafe pointer, no
// interface that could hold either — so the decode above stays true for
// every log, not only the ones it tries.
func TestLogHoldsNoBytesBodyLifetime(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Slice:
			if typ.Elem().Kind() == reflect.Uint8 {
				t.Errorf("%s is a %s, which can alias the body it was decoded from", path, typ)
				return
			}
			walk(path+"[]", typ.Elem())
		case reflect.Array, reflect.Pointer:
			walk(path+"*", typ.Elem())
		case reflect.Map:
			walk(path+"[key]", typ.Key())
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Interface, reflect.UnsafePointer, reflect.Uintptr, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s, which could hold a slice of the body", path, typ)
		}
	}
	walk("Log", reflect.TypeOf(darshan.Log{}))
}
