package patterns

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSkipsBlankAndCommentLines(t *testing.T) {
	text := "# header\n\n  attack.*payload  \r\n\t# indented comment\r\n/evil[^\\n]*x/i\r\n\n"
	rules, err := Parse(strings.NewReader(text), "rules.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"attack.*payload", `/evil[^\n]*x/i`}
	if len(rules) != len(want) {
		t.Fatalf("got %d rules, want %d", len(rules), len(want))
	}
	for i, r := range rules {
		if r.ID != int32(i+1) || r.Source != want[i] || r.Pattern == nil {
			t.Errorf("rule %d = {%d %q %v}, want {%d %q parsed}", i, r.ID, r.Source, r.Pattern, i+1, want[i])
		}
	}
}

func TestParseErrorsNameTheLine(t *testing.T) {
	for _, tc := range []struct{ text, want string }{
		{"ok\n\n# c\nbad(rule\n", "rules.txt:4: "},
		{"a\r\nb\r\n(\r\n", "rules.txt:3: "},
		{"", "rules.txt: no patterns"},
		{"# only\n\n   \n", "rules.txt: no patterns"},
		{"ok\n#" + strings.Repeat("a", maxLineBytes) + "\n", "rules.txt:2: line longer than"},
		{"ok\n#" + strings.Repeat("a", maxLineBytes+8), "rules.txt:2: line longer than"},
	} {
		_, err := Parse(strings.NewReader(tc.text), "rules.txt")
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("Parse(%.20q) error = %v, want prefix %q", tc.text, err, tc.want)
		}
	}
}

// A rule line past bufio.Scanner's default 64 KiB token cap parses. The
// line is a character class, not a literal, so the test stays at parser
// level without building a giant automaton.
func TestParseLongLine(t *testing.T) {
	long := "[" + strings.Repeat("ab", 40<<10) + "]"
	rules, err := Parse(strings.NewReader("x\n"+long+"\r\ny\n"), "big")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 || rules[1].Source != long || rules[2].ID != 3 {
		t.Fatalf("got %d rules; second has %d bytes", len(rules), len(rules[1].Source))
	}
	// A line of exactly maxLineBytes (before its CRLF) is still accepted.
	edge := "#" + strings.Repeat("a", maxLineBytes-1) + "\r\nz\n"
	if rules, err := Parse(strings.NewReader(edge), "edge"); err != nil || len(rules) != 1 {
		t.Fatalf("maxLineBytes line: %d rules, %v", len(rules), err)
	}
}

func TestSelect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.txt")
	if err := os.WriteFile(path, []byte("abc\nde(f\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Select("", path); err == nil || !strings.HasPrefix(err.Error(), path+":2: ") {
		t.Errorf("Select(file) error = %v, want %s:2 prefix", err, path)
	}
	if rules, err := Select("C8", ""); err != nil || len(rules) != 8 {
		t.Errorf("Select(C8) = %d rules, %v", len(rules), err)
	}
	if _, err := Select("C8", path); err == nil {
		t.Error("both -set and -rules accepted")
	}
	if _, err := Select("", ""); err == nil {
		t.Error("neither -set nor -rules accepted")
	}
}
