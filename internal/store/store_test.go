package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(`{"hello":"world"}`)
	id, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if !id.Valid() {
		t.Fatalf("Put returned invalid id %q", id)
	}
	if id != SumID(data) {
		t.Fatalf("Put id %s != SumID %s", id, SumID(data))
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	if !s.Has(id) {
		t.Fatal("Has(id) = false after Put")
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("same content")
	id1, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("dedup broken: %s != %s", id1, id2)
	}
	ids, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("expected 1 stored blob, got %d", len(ids))
	}
}

func TestGetRejectsBadIDs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []ID{
		"",
		"sha256:short",
		"md5:0000000000000000000000000000000000000000000000000000000000000000",
		"sha256:../../../../etc/passwd0000000000000000000000000000000000000000",
		ID("sha256:" + "Z0000000000000000000000000000000000000000000000000000000000000000"[:64]),
	} {
		if _, err := s.Get(bad); err == nil {
			t.Errorf("Get(%q) succeeded, want error", bad)
		}
		if s.Has(bad) {
			t.Errorf("Has(%q) = true", bad)
		}
	}
	// Valid shape but absent content.
	absent := SumID([]byte("never stored"))
	if _, err := s.Get(absent); err == nil {
		t.Error("Get of absent blob succeeded")
	}
}

func TestGetDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Put([]byte("original"))
	if err != nil {
		t.Fatal(err)
	}
	h := string(id)[len("sha256:"):]
	obj := filepath.Join(dir, "objects", h[:2], h)
	if err := os.WriteFile(obj, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); err == nil {
		t.Fatal("Get of corrupted blob succeeded")
	}
}

func TestConcurrentPuts(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers, blobs = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers*blobs)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < blobs; i++ {
				// Writers collide on every blob: dedup + atomic rename
				// must keep each object intact.
				data := []byte(fmt.Sprintf("blob-%d", i))
				id, err := s.Put(data)
				if err != nil {
					errs <- err
					return
				}
				got, err := s.Get(id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("blob %d: got %q", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ids, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != blobs {
		t.Fatalf("expected %d blobs, got %d", blobs, len(ids))
	}
}

func TestIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := OpenIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	key := SumID([]byte("canonical request"))
	if idx.Get(key) != nil {
		t.Fatal("Get on empty index returned an entry")
	}
	rep, _ := s.Put([]byte("report"))
	art, _ := s.Put([]byte("artifact"))
	e := &Entry{
		Key:       key,
		Request:   []byte(`{"program":"CS/account"}`),
		Report:    rep,
		Artifacts: []ID{art},
		CreatedAt: "2026-08-08T00:00:00Z",
	}
	if err := idx.Put(e); err != nil {
		t.Fatal(err)
	}
	// A fresh Index over the same root sees the persisted entry.
	idx2, err := OpenIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	got := idx2.Get(key)
	if got == nil {
		t.Fatal("persisted entry not found after reopen")
	}
	if got.Report != rep || len(got.Artifacts) != 1 || got.Artifacts[0] != art {
		t.Fatalf("entry mismatch: %+v", got)
	}
	// Mutating the returned copy must not leak into the index.
	got.Artifacts[0] = "sha256:0000000000000000000000000000000000000000000000000000000000000000"
	if idx2.Get(key).Artifacts[0] != art {
		t.Fatal("Get returned a shared slice")
	}
}

func TestIndexWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := OpenIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rep, _ := s.Put([]byte(fmt.Sprintf("report-%d", i)))
		err := idx.Put(&Entry{
			Key:     SumID([]byte(fmt.Sprintf("key-%d", i))),
			Request: []byte(`{}`),
			Report:  rep,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// No temp file left behind and the index parses.
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Fatalf("index temp files left behind: %v", tmps)
	}
	idx2, err := OpenIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	if idx2.Len() != 5 {
		t.Fatalf("expected 5 entries, got %d", idx2.Len())
	}
}

// TestFailedRenameKeepsOldContent: when the rename into place fails,
// WriteFileAtomic returns the error, removes its temp file and leaves
// the old file untouched — for the index and for any other caller.
func TestFailedRenameKeepsOldContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	fault := errors.New("injected rename fault")
	rename = func(string, string) error { return fault }
	defer func() { rename = os.Rename }()
	if err := WriteFileAtomic(path, []byte("new")); !errors.Is(err, fault) {
		t.Fatalf("WriteFileAtomic error = %v, want the rename fault", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "index.json" {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only index.json", names)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("content after a failed rename = %q, want the old %q", got, "old")
	}
}

func TestListEmptyAndPopulated(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Empty store: fn never called.
	calls := 0
	if err := s.List(func(ID) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("List on empty store visited %d ids", calls)
	}
	// Populated store: every blob visited exactly once, in sorted order.
	want := map[ID]bool{}
	for i := 0; i < 7; i++ {
		id, err := s.Put([]byte(fmt.Sprintf("blob-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = true
	}
	var seen []ID
	if err := s.List(func(id ID) error { seen = append(seen, id); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("List visited %d ids, want %d", len(seen), len(want))
	}
	for i, id := range seen {
		if !want[id] {
			t.Fatalf("List visited unknown id %s", id)
		}
		if i > 0 && seen[i-1] >= id {
			t.Fatalf("List out of order: %s before %s", seen[i-1], id)
		}
	}
	// An fn error stops the walk and propagates.
	stop := fmt.Errorf("stop here")
	calls = 0
	err = s.List(func(ID) error {
		calls++
		if calls == 3 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("List error = %v, want %v", err, stop)
	}
	if calls != 3 {
		t.Fatalf("List kept walking after error: %d calls", calls)
	}
}

func TestIndexEntriesAndDelete(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := OpenIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	var keys []ID
	for i := 0; i < 4; i++ {
		key := SumID([]byte(fmt.Sprintf("req-%d", i)))
		keys = append(keys, key)
		if err := idx.Put(&Entry{Key: key, Report: SumID([]byte("report"))}); err != nil {
			t.Fatal(err)
		}
	}
	got := idx.Entries()
	if len(got) != 4 {
		t.Fatalf("Entries returned %d, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key >= got[i].Key {
			t.Fatalf("Entries out of order: %s before %s", got[i-1].Key, got[i].Key)
		}
	}
	// Mutating a returned entry must not touch the index.
	got[0].Artifacts = append(got[0].Artifacts, SumID([]byte("rogue")))
	if e := idx.Get(got[0].Key); len(e.Artifacts) != 0 {
		t.Fatal("Entries leaked a mutable reference into the index")
	}
	if err := idx.Delete(keys[1]); err != nil {
		t.Fatal(err)
	}
	if idx.Get(keys[1]) != nil {
		t.Fatal("entry still present after Delete")
	}
	// Delete persists: a fresh open must not see the entry.
	idx2, err := OpenIndex(s)
	if err != nil {
		t.Fatal(err)
	}
	if idx2.Len() != 3 || idx2.Get(keys[1]) != nil {
		t.Fatalf("Delete did not persist: len=%d", idx2.Len())
	}
	// Deleting an absent key is a no-op.
	if err := idx.Delete(SumID([]byte("never-stored"))); err != nil {
		t.Fatal(err)
	}
}
