package dsim_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/checkpoint"
)

// overlaid restores a checkpoint of a value of typ into a live one and
// names the fields the restore overlays: those where the restored value is
// not the checkpointed one. Both values hold one element in every map and
// slice, under different keys and with different scalars, so a field that
// restores exactly reads the checkpoint's, and one that keeps later map keys
// reads both.
func overlaid(t *testing.T, typ reflect.Type) []string {
	t.Helper()
	ck, live := reflect.New(typ), reflect.New(typ)
	fill(ck.Elem(), 1)
	fill(live.Elem(), 2)
	want := reflect.New(typ)
	fill(want.Elem(), 1)
	extra, codec, err := new(checkpoint.Arena).Encode(ck.Interface())
	if err != nil {
		t.Fatalf("%v: %v", typ, err)
	}
	if err := (&checkpoint.Checkpoint{Extra: extra, Codec: codec}).Restore(live.Interface()); err != nil {
		t.Fatalf("%v: %v", typ, err)
	}
	var out []string
	diff(want.Elem(), live.Elem(), "", &out)
	return out
}

// fill gives every exported field of v a value derived from n: scalars n,
// one map entry keyed by n, one slice element, a non-nil pointer.
func fill(v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k, n)
		fill(e, n)
		m.SetMapIndex(k, e)
		v.Set(m)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		fill(s.Index(0), n)
		v.Set(s)
	case reflect.Array:
		for i := range v.Len() {
			fill(v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.String:
		v.SetString(fmt.Sprint("v", n))
	case reflect.Bool:
		v.SetBool(n == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(n))
	}
}

// diff appends the path of every leaf where got is not want: a map or a
// slice that differs as a whole, or a differing scalar.
func diff(want, got reflect.Value, path string, out *[]string) {
	switch want.Kind() {
	case reflect.Struct:
		for i := range want.NumField() {
			if f := want.Type().Field(i); f.IsExported() {
				diff(want.Field(i), got.Field(i), strings.TrimPrefix(path+"."+f.Name, "."), out)
			}
		}
	case reflect.Pointer:
		diff(want.Elem(), got.Elem(), path, out)
	default:
		if !reflect.DeepEqual(want.Interface(), got.Interface()) {
			*out = append(*out, path)
		}
	}
}

// restoreOverlays is, for every state type of the Registry and Zoo
// applications, each variant, exactly the fields a checkpoint restore
// overlays: maps that keep the keys the process wrote after the checkpoint
// (ROADMAP item 1). Every other field restores exactly.
var restoreOverlays = map[string][]string{
	"apps.bankState":      {},
	"apps.caCacheState":   {"Values", "Versions", "InvVer", "Pending"},
	"apps.caClientState":  {"MinVer", "Issued"},
	"apps.caPrimaryState": {"Values", "Versions", "AckWait"},
	"apps.coordState":     {"Voted"},
	"apps.electState":     {},
	"apps.kvClientState":  {},
	"apps.kvState":        {"Values", "Versions"},
	"apps.msBackState":    {"Executed", "Pending"},
	"apps.msClientState":  {"IssuedAt", "Attempts", "Completed", "Degraded"},
	"apps.msSvcState":     {"Upstream", "Done", "Attempts", "FailedOver"},
	"apps.partState":      {},
	"apps.tokenRingState": {},
}

// TestRestoreStateTable spells out what a restore does to a live value:
// field kind by field kind for one state type, through the one restore
// helper (checkpoint.RestoreState — Checkpoint.Restore loads through it),
// and field by field for the state of every Registry and Zoo application,
// through Checkpoint.Restore. Scalars, slices and nil maps take the
// checkpoint's value exactly; a non-nil map keeps its later keys (the
// overlay TestRestoreOverlaysLiveMaps pins); a field the checkpoint omits
// keeps its live value; bytes the state's type does not accept are an error.
func TestRestoreStateTable(t *testing.T) {
	type state struct {
		N     int
		Name  string
		List  []int
		Set   map[string]bool
		Inner struct{ Votes map[string]int }
	}
	live := func() *state {
		st := &state{N: 9, Name: "late", List: []int{7, 8, 9}, Set: map[string]bool{"a": true, "late": true}}
		st.Inner.Votes = map[string]int{"a": 2, "late": 1}
		return st
	}
	for _, tc := range []struct {
		name, ckpt string
		into       *state
		want       func(*state)
		fails      bool
	}{
		{name: "scalars and slices restore exactly", ckpt: `{"N":1,"Name":"early","List":[1]}`, into: live(),
			want: func(st *state) { st.N, st.Name, st.List = 1, "early", []int{1} }},
		{name: "a null slice empties the live one", ckpt: `{"List":null}`, into: live(),
			want: func(st *state) { st.List = nil }},
		{name: "a live map keeps its later keys", ckpt: `{"Set":{"a":true},"Inner":{"Votes":{"a":1}}}`, into: live(),
			want: func(st *state) { st.Inner.Votes["a"] = 1 }},
		{name: "a null map empties the live one", ckpt: `{"Set":null}`, into: live(),
			want: func(st *state) { st.Set = nil }},
		{name: "a nil map restores exactly", ckpt: `{"Set":{"a":true}}`, into: &state{},
			want: func(st *state) { st.Set = map[string]bool{"a": true} }},
		{name: "an omitted field keeps its live value", ckpt: `{}`, into: live(), want: func(*state) {}},
		{name: "a mistyped field is refused", ckpt: `{"N":"one"}`, into: live(), fails: true},
		{name: "truncated bytes are refused", ckpt: `{"N":1`, into: live(), fails: true},
		{name: "no bytes are refused", ckpt: ``, into: live(), fails: true},
	} {
		want := live()
		if tc.into.Set == nil {
			want = &state{}
		}
		err := checkpoint.RestoreState([]byte(tc.ckpt), tc.into)
		if tc.fails {
			if err == nil {
				t.Errorf("%s: accepted %q", tc.name, tc.ckpt)
			}
			continue
		}
		if tc.want(want); err != nil || !reflect.DeepEqual(tc.into, want) {
			t.Errorf("%s: restored %+v (%v), want %+v", tc.name, tc.into, err, want)
		}
	}

	got := map[string][]string{}
	for _, spec := range append(apps.Registry(), apps.Zoo()...) {
		for _, buggy := range []bool{false, true} {
			for _, m := range spec.Make(buggy) {
				typ := reflect.TypeOf(m.State()).Elem()
				if _, seen := got[typ.String()]; !seen {
					got[typ.String()] = overlaid(t, typ)
				}
			}
		}
	}
	for _, n := range slices.Sorted(maps.Keys(got)) {
		if !slices.Equal(got[n], restoreOverlays[n]) {
			t.Errorf("%s: a restore overlays %q, want %q", n, got[n], restoreOverlays[n])
		}
	}
	if len(got) != len(restoreOverlays) {
		t.Errorf("%d application state types, the table names %d", len(got), len(restoreOverlays))
	}
}
