// Package store is the campaign service's persistence layer: a
// content-addressed, filesystem-backed blob store plus a small JSON
// index mapping campaign cache keys to stored results.
//
// Blobs are keyed by the SHA-256 of their content ("sha256:<hex>"), so
// identical artifacts written by different campaigns deduplicate to one
// file and a fetched blob can always be verified against its own name.
// Writes are atomic (WriteFileAtomic: temp file + rename into place) and
// idempotent: re-putting existing content is a no-op that returns the
// same ID.
//
// The index (see Index) is what makes campaigns resumable: a campaign
// request canonicalizes to a cache key, and a completed run records its
// report/artifact/event blob IDs under that key, so an identical
// re-submission returns the stored result instead of re-fuzzing.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ID is a content address: "sha256:" followed by 64 lowercase hex
// digits of the blob's SHA-256.
type ID string

const idPrefix = "sha256:"

// SumID computes the content address of a byte slice.
func SumID(data []byte) ID {
	h := sha256.Sum256(data)
	return ID(idPrefix + hex.EncodeToString(h[:]))
}

// Valid reports whether the ID is syntactically a content address. It
// guards path construction: an invalid ID never touches the filesystem.
func (id ID) Valid() bool {
	s := string(id)
	if !strings.HasPrefix(s, idPrefix) || len(s) != len(idPrefix)+64 {
		return false
	}
	for _, c := range s[len(idPrefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// hexPart returns the hex digest portion of a valid ID.
func (id ID) hexPart() string { return string(id)[len(idPrefix):] }

// Store is a content-addressed blob store rooted at a directory:
//
//	<root>/objects/<aa>/<sha256-hex>   (aa = first two hex digits)
//
// All methods are safe for concurrent use; cross-process writers are
// also safe because visibility is a single rename of complete content.
type Store struct {
	root string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// path maps a valid ID to its object file.
func (s *Store) path(id ID) string {
	h := id.hexPart()
	return filepath.Join(s.root, "objects", h[:2], h)
}

// Put writes a blob and returns its content address. Existing content
// deduplicates: the write is skipped and the same ID returned. The blob
// becomes visible atomically — readers never observe partial content.
func (s *Store) Put(data []byte) (ID, error) {
	id := SumID(data)
	dst := s.path(id)
	if _, err := os.Stat(dst); err == nil {
		return id, nil // dedup: content already present
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err := WriteFileAtomic(dst, data); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	return id, nil
}

// rename is os.Rename; the fault tests swap it to fail the last step of
// WriteFileAtomic.
var rename = os.Rename

// WriteFileAtomic writes data to path through a uniquely named temp file
// in the same directory and a rename into place, so readers see the old
// content or the new, never a torn file, and concurrent writers of one
// path never share a temp file. A failed write or rename removes the
// temp file and leaves path as it was. The error is returned bare for
// the caller to prefix.
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// Get reads a blob back, verifying its content against the address; a
// corrupted object file is an error, never silently wrong bytes.
func (s *Store) Get(id ID) ([]byte, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("store: invalid content id %q", id)
	}
	data, err := os.ReadFile(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: no blob %s", id)
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	if got := SumID(data); got != id {
		return nil, fmt.Errorf("store: blob %s is corrupt (content hashes to %s)", id, got)
	}
	return data, nil
}

// Has reports whether a blob is present.
func (s *Store) Has(id ID) bool {
	if !id.Valid() {
		return false
	}
	_, err := os.Stat(s.path(id))
	return err == nil
}

// List calls fn for every stored blob's address in sorted order,
// stopping early (and returning fn's error) if fn fails. It is the
// streaming counterpart of IDs for scanners — triage, garbage checks —
// that want to visit blobs without materializing the whole address
// list first.
func (s *Store) List(fn func(ID) error) error {
	ids, err := s.IDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := fn(id); err != nil {
			return err
		}
	}
	return nil
}

// IDs lists every stored blob's address, sorted.
func (s *Store) IDs() ([]ID, error) {
	var out []ID
	objRoot := filepath.Join(s.root, "objects")
	err := filepath.Walk(objRoot, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		if id := ID(idPrefix + filepath.Base(path)); id.Valid() {
			out = append(out, id)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
