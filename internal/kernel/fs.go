package kernel

import "sort"

// Open flags (a subset of the POSIX numbering).
const (
	ORdOnly = 0x0
	OWrOnly = 0x1
	ORdWr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// FS is the kernel's in-memory filesystem. Files read through SYS_READ are
// an external taint source (Section 4.4), so the taint marking happens in
// the syscall layer, not here.
type FS struct {
	files map[string][]byte
}

// NewFS returns an empty filesystem.
func NewFS() *FS {
	return &FS{files: make(map[string][]byte)}
}

// WriteFile creates or replaces a file.
func (fs *FS) WriteFile(path string, data []byte) {
	fs.files[path] = append([]byte(nil), data...)
}

// ReadFile returns a copy of a file's contents.
func (fs *FS) ReadFile(path string) ([]byte, bool) {
	d, ok := fs.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), d...), true
}

// Exists reports whether path is present.
func (fs *FS) Exists(path string) bool {
	_, ok := fs.files[path]
	return ok
}

// Remove deletes a file; it reports whether the file existed.
func (fs *FS) Remove(path string) bool {
	_, ok := fs.files[path]
	delete(fs.files, path)
	return ok
}

// Paths lists all files in lexical order.
func (fs *FS) Paths() []string {
	out := make([]string, 0, len(fs.files))
	for p := range fs.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// file is an open file's kernel-side state.
type file struct {
	fs      *FS
	path    string
	pos     int
	rd, wr  bool
	appendW bool
}

func (f *file) read(p []byte) int {
	data := f.fs.files[f.path]
	if f.pos >= len(data) {
		return 0
	}
	n := copy(p, data[f.pos:])
	f.pos += n
	return n
}

// remaining returns how many bytes a read at the current offset returns.
func (f *file) remaining() int { return max(0, len(f.fs.files[f.path])-f.pos) }

func (f *file) write(p []byte) int {
	data := f.fs.files[f.path]
	if f.appendW {
		f.pos = len(data)
	}
	if f.pos+len(p) > len(data) {
		grown := make([]byte, f.pos+len(p))
		copy(grown, data)
		data = grown
	}
	copy(data[f.pos:], p)
	f.pos += len(p)
	f.fs.files[f.path] = data
	return len(p)
}
