package symtab

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternLookupRoundTrip(t *testing.T) {
	a := Intern("symtab-test-Alpha")
	b := Intern("symtab-test-Beta")
	if a == None || b == None {
		t.Fatalf("Intern returned None: %d %d", a, b)
	}
	if a == b {
		t.Fatalf("distinct strings interned to one ID %d", a)
	}
	if got := Intern("symtab-test-Alpha"); got != a {
		t.Fatalf("re-Intern = %d, want %d", got, a)
	}
	if got := Lookup("symtab-test-Alpha"); got != a {
		t.Fatalf("Lookup = %d, want %d", got, a)
	}
	if got := Name(a); got != "symtab-test-Alpha" {
		t.Fatalf("Name = %q", got)
	}
	if got := Lookup("symtab-test-NeverSeen"); got != None {
		t.Fatalf("Lookup(unseen) = %d, want None", got)
	}
	if got := Name(None); got != "" {
		t.Fatalf("Name(None) = %q, want empty", got)
	}
}

func TestCanonReturnsOneInstance(t *testing.T) {
	s1 := Canon("symtab-test-" + fmt.Sprint(12345))
	s2 := Canon("symtab-test-" + fmt.Sprint(12345))
	// Equal contents and, load-bearingly, the same backing instance.
	if s1 != s2 {
		t.Fatalf("Canon mismatch: %q vs %q", s1, s2)
	}
}

// TestLimitOverflow pins the table's overflow contract: at the cap,
// TryIntern reports failure without allocating, Canon degrades to its
// (un-canonicalized) argument, Intern fails fast with a panic — and
// already-interned symbols keep working throughout.
func TestLimitOverflow(t *testing.T) {
	pre := Len()
	prev := SetLimit(pre + 2)
	defer SetLimit(prev)
	// Symbols are never removed, so each run (-count=N) needs fresh ones.
	symA, symB, symC := fmt.Sprintf("symtab-test-limit-%d-A", pre), fmt.Sprintf("symtab-test-limit-%d-B", pre), fmt.Sprintf("symtab-test-limit-%d-C", pre)

	a := Intern(symA)
	b := Intern(symB)
	if a == None || b == None || a == b {
		t.Fatalf("Intern below the cap: %d %d", a, b)
	}

	// The table is now full. New symbols are refused explicitly...
	if id, ok := TryIntern(symC); ok || id != None {
		t.Fatalf("TryIntern over the cap = (%d, %v), want (None, false)", id, ok)
	}
	if got := Len(); got != pre+2 {
		t.Fatalf("Len after refused intern = %d, want %d", got, pre+2)
	}
	// ...Canon degrades to the un-canonicalized string...
	if got := Canon(symC); got != symC {
		t.Fatalf("Canon over the cap = %q", got)
	}
	if got := Lookup(symC); got != None {
		t.Fatalf("refused symbol leaked into the table: id %d", got)
	}
	// ...and Intern, whose callers cannot tolerate ID aliasing, panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Intern over the cap did not panic")
			}
		}()
		Intern(symC)
	}()

	// Existing symbols are unaffected by a full table.
	if got := Intern(symA); got != a {
		t.Fatalf("re-Intern at the cap = %d, want %d", got, a)
	}
	if got, ok := TryIntern(symB); !ok || got != b {
		t.Fatalf("TryIntern of existing at the cap = (%d, %v), want (%d, true)", got, ok, b)
	}
	if got := Name(b); got != symB {
		t.Fatalf("Name at the cap = %q", got)
	}

	// Raising the cap admits the refused symbol with a fresh ID.
	SetLimit(pre + 3)
	if id := Intern(symC); id == None || id == a || id == b {
		t.Fatalf("Intern after raising the cap = %d", id)
	}
}

func TestInternConcurrent(t *testing.T) {
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	got := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				got[g][i] = Intern(fmt.Sprintf("symtab-test-conc-%d", i))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d interned %q to %d, goroutine 0 to %d",
					g, fmt.Sprintf("symtab-test-conc-%d", i), got[g][i], got[0][i])
			}
		}
	}
}
