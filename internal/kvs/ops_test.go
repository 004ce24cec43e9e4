package kvs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fluxgo/internal/cas"
)

func TestValidateKey(t *testing.T) {
	good := []string{"a", "a.b", "a.b.c", "resource.rank.0"}
	for _, k := range good {
		if err := ValidateKey(k); err != nil {
			t.Errorf("ValidateKey(%q) = %v", k, err)
		}
	}
	bad := []string{"", ".", "a.", ".a", "a..b"}
	for _, k := range bad {
		if err := ValidateKey(k); err == nil {
			t.Errorf("ValidateKey(%q) accepted", k)
		}
	}
}

// putVal stores a JSON value object and returns its hex ref.
func putVal(store *cas.Store, js string) string {
	return store.Put(cas.NewValue([]byte(js))).String()
}

// lookup walks the hash tree, mirroring the paper's lookup example.
func lookup(t *testing.T, store *cas.Store, root cas.Ref, key string) (*cas.Object, bool) {
	t.Helper()
	if root.IsZero() {
		return nil, false
	}
	ref := root
	for _, part := range splitKey(key) {
		obj, ok := getObject(store, ref)
		if !ok || obj.Kind != cas.KindDir {
			return nil, false
		}
		next, ok := obj.Dir[part]
		if !ok {
			return nil, false
		}
		ref = next
	}
	return getObject(store, ref)
}

func TestApplyOpsPaperExample(t *testing.T) {
	// The paper's worked example: store a.b.c = 42, then update to 43,
	// verifying each update yields a new root reference.
	store := cas.NewStore(nil)
	root1, err := ApplyOps(store, cas.Ref{}, []Op{{Key: "a.b.c", Ref: putVal(store, "42")}}, false)
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := lookup(t, store, root1, "a.b.c")
	if !ok || string(obj.Value) != "42" {
		t.Fatalf("lookup a.b.c = %v,%v, want 42", obj, ok)
	}

	root2, err := ApplyOps(store, root1, []Op{{Key: "a.b.c", Ref: putVal(store, "43")}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if root1 == root2 {
		t.Fatal("update did not produce a new root reference")
	}
	obj, _ = lookup(t, store, root2, "a.b.c")
	if string(obj.Value) != "43" {
		t.Fatalf("after update, a.b.c = %s", obj.Value)
	}
	// The old root still resolves to the old value: snapshots coexist,
	// which is what makes the root switch atomic.
	obj, _ = lookup(t, store, root1, "a.b.c")
	if string(obj.Value) != "42" {
		t.Fatalf("old snapshot mutated: a.b.c = %s", obj.Value)
	}
}

func TestApplyOpsSiblings(t *testing.T) {
	store := cas.NewStore(nil)
	root, err := ApplyOps(store, cas.Ref{}, []Op{
		{Key: "a.x", Ref: putVal(store, "1")},
		{Key: "a.y", Ref: putVal(store, "2")},
		{Key: "b", Ref: putVal(store, "3")},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"a.x": "1", "a.y": "2", "b": "3"} {
		obj, ok := lookup(t, store, root, key)
		if !ok || string(obj.Value) != want {
			t.Errorf("%s = %v, want %s", key, obj, want)
		}
	}
}

func TestApplyOpsDelete(t *testing.T) {
	store := cas.NewStore(nil)
	root, _ := ApplyOps(store, cas.Ref{}, []Op{
		{Key: "a.b", Ref: putVal(store, "1")},
		{Key: "c", Ref: putVal(store, "2")},
	}, false)
	root2, err := ApplyOps(store, root, []Op{{Key: "a.b", Delete: true}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lookup(t, store, root2, "a.b"); ok {
		t.Fatal("deleted key still resolves")
	}
	// Empty directory "a" must be pruned.
	if _, ok := lookup(t, store, root2, "a"); ok {
		t.Fatal("empty parent directory survived")
	}
	if obj, ok := lookup(t, store, root2, "c"); !ok || string(obj.Value) != "2" {
		t.Fatal("unrelated key lost")
	}
}

func TestApplyOpsDeleteEverything(t *testing.T) {
	store := cas.NewStore(nil)
	root, _ := ApplyOps(store, cas.Ref{}, []Op{{Key: "only", Ref: putVal(store, "1")}}, false)
	root2, err := ApplyOps(store, root, []Op{{Key: "only", Delete: true}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !root2.IsZero() {
		t.Fatalf("empty store root = %s, want zero", root2.Short())
	}
}

func TestApplyOpsValueOverwrittenByDir(t *testing.T) {
	store := cas.NewStore(nil)
	root, _ := ApplyOps(store, cas.Ref{}, []Op{{Key: "a", Ref: putVal(store, "1")}}, false)
	root2, err := ApplyOps(store, root, []Op{{Key: "a.b", Ref: putVal(store, "2")}}, false)
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := lookup(t, store, root2, "a.b")
	if !ok || string(obj.Value) != "2" {
		t.Fatal("nested write under former value failed")
	}
}

func TestApplyOpsDuplicateKeyLastWins(t *testing.T) {
	store := cas.NewStore(nil)
	root, err := ApplyOps(store, cas.Ref{}, []Op{
		{Key: "k", Ref: putVal(store, "1")},
		{Key: "k", Ref: putVal(store, "2")},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := lookup(t, store, root, "k")
	if string(obj.Value) != "2" {
		t.Fatalf("k = %s, want 2 (last write wins)", obj.Value)
	}
}

func TestApplyOpsInvalid(t *testing.T) {
	store := cas.NewStore(nil)
	if _, err := ApplyOps(store, cas.Ref{}, []Op{{Key: "", Ref: putVal(store, "1")}}, false); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := ApplyOps(store, cas.Ref{}, []Op{{Key: "k", Ref: "nothex"}}, false); err == nil {
		t.Fatal("bad ref accepted")
	}
}

// Property: the final root is independent of the order in which ops on
// distinct keys are applied — the hash-tree determinism the fence
// protocol relies on (batches may merge in any order).
func TestApplyOpsOrderIndependenceQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	letters := []string{"a", "b", "c", "d"}
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%12) + 1
		store := cas.NewStore(nil)
		seen := map[string]bool{}
		var ops []Op
		for i := 0; i < count; i++ {
			depth := r.Intn(3) + 1
			key := ""
			for d := 0; d < depth; d++ {
				if d > 0 {
					key += "."
				}
				key += letters[r.Intn(len(letters))]
			}
			// Ensure key-distinctness and prefix-freedom: a key that is a
			// path prefix of another would make order matter by design.
			key = key + "." + "k" + itoa(i)
			if seen[key] {
				continue
			}
			seen[key] = true
			ops = append(ops, Op{Key: key, Ref: putVal(store, `"v`+itoa(i)+`"`)})
		}
		if len(ops) == 0 {
			return true
		}
		root1, err1 := ApplyOps(store, cas.Ref{}, ops, false)
		shuffled := append([]Op(nil), ops...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		root2, err2 := ApplyOps(store, cas.Ref{}, shuffled, false)
		return err1 == nil && err2 == nil && root1 == root2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// Property: incremental application (one op at a time) reaches the same
// root as batch application for distinct keys.
func TestApplyOpsIncrementalEquivalenceQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		count := int(n%10) + 1
		store := cas.NewStore(nil)
		var ops []Op
		for i := 0; i < count; i++ {
			key := "d" + itoa(r.Intn(4)) + ".k" + itoa(i)
			ops = append(ops, Op{Key: key, Ref: putVal(store, itoa(r.Intn(1000)))})
		}
		batch, err := ApplyOps(store, cas.Ref{}, ops, false)
		if err != nil {
			return false
		}
		root := cas.Ref{}
		for _, op := range ops {
			root, err = ApplyOps(store, root, []Op{op}, false)
			if err != nil {
				return false
			}
		}
		return root == batch
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
