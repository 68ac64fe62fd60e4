package apps

import "fmt"

// nameTable serves the process IDs of one family ("bank00", "bank01", ...)
// from strings formatted once: handlers name a peer on every send.
type nameTable struct {
	format string
	names  [100]string
}

func newNameTable(format string) *nameTable {
	t := &nameTable{format: format}
	for i := range t.names {
		t.names[i] = fmt.Sprintf(format, i)
	}
	return t
}

// name returns what fmt.Sprintf(t.format, i) returns.
func (t *nameTable) name(i int) string {
	if i >= 0 && i < len(t.names) {
		return t.names[i]
	}
	return fmt.Sprintf(t.format, i)
}

var (
	bankNames  = newNameTable("bank%02d")
	electNames = newNameTable("elect%02d")
	kvNames    = newNameTable("kvrep%02d")
	msNames    = newNameTable("mssvc%d")
	ringNames  = newNameTable("ring%02d")
	partNames  = newNameTable("part%02d")
	caKeys     = newNameTable("k%d")
)
