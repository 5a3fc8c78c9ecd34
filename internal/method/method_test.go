package method

import (
	"reflect"
	"testing"
)

func TestTableOrderMatchesPaper(t *testing.T) {
	want := []string{"Naive", "BallTree", "FastMKS", "SS-L", "F-S", "F-I", "F-SI", "F-SR", "F-SIR"}
	if got := TableNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("TableNames() = %v, want Table 4 order %v", got, want)
	}
	wantPruning := []string{"BallTree", "SS-L", "F-S", "F-SI", "F-SIR"}
	if got := PruningNames(); !reflect.DeepEqual(got, wantPruning) {
		t.Fatalf("PruningNames() = %v, want Tables 3/7 columns %v", got, wantPruning)
	}
}

func TestLookupAliasesAndCase(t *testing.T) {
	for _, tc := range []struct{ key, want string }{
		{"naive", "Naive"}, {"NAIVE", "Naive"}, {"scan", "Naive"},
		{"ssl", "SS-L"}, {"ss-l", "SS-L"},
		{"covertree", "FastMKS"}, {"fastmks", "FastMKS"},
		{"f-sir", "F-SIR"}, {"F-SIR", "F-SIR"}, {"f", "F"},
		{"pcatree", "PCATree"}, {"lemp", "LEMP"},
	} {
		d, ok := Lookup(tc.key)
		if !ok || d.Name != tc.want {
			t.Errorf("Lookup(%q) = %v, %v; want %s", tc.key, d, ok, tc.want)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup(nope) succeeded")
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get(nope) returned nil error")
	}
}

func TestExactExcludesPCATree(t *testing.T) {
	d, _ := Lookup("PCATree")
	if d.Exact {
		t.Fatal("PCATree marked exact")
	}
	if d.ShardInvariant {
		t.Fatal("PCATree marked shard-invariant")
	}
}

func TestRegisterRejectsIncompleteAndDuplicate(t *testing.T) {
	mustPanic := func(name string, d Descriptor) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Register did not panic", name)
			}
		}()
		Register(d)
	}
	mustPanic("incomplete", Descriptor{Name: "X"})
	d, _ := Lookup("Naive")
	mustPanic("duplicate", *d)
}
