package patterns

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"matchfilter/internal/regexparse"
)

// maxLineBytes bounds one line of rule text (CR and LF excluded).
const maxLineBytes = 1 << 20

// Parse reads rule text: one pattern per line, bare ("a.*b") or slashed
// Snort-style ("/a[^\n]*b/i"). Surrounding whitespace — a CR before the
// LF included — is trimmed, and blank lines and lines starting with #
// are skipped. Rule ids are 1..n in line order. Errors read
// "name:line: reason"; text without patterns fails with
// "name: no patterns".
func Parse(r io.Reader, name string) ([]Rule, error) {
	var rules []Rule
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLineBytes+len("\r\n"))
	tooLong := fmt.Errorf("line longer than %d bytes", maxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) > maxLineBytes {
			return nil, fmt.Errorf("%s:%d: %w", name, line, tooLong)
		}
		src := strings.TrimSpace(sc.Text())
		if src == "" || strings.HasPrefix(src, "#") {
			continue
		}
		p, err := regexparse.ParsePCRE(src)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, line, err)
		}
		rules = append(rules, Rule{ID: int32(len(rules) + 1), Source: src, Pattern: p})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = tooLong
		}
		return nil, fmt.Errorf("%s:%d: %w", name, line+1, err)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("%s: no patterns", name)
	}
	return rules, nil
}

// Select resolves the -set/-rules flag pair the command-line tools
// share: the built-in set named set, or the rules file at path (parsed
// by Parse, so errors name path:line). Exactly one must be given.
func Select(set, path string) ([]Rule, error) {
	switch {
	case set != "" && path != "":
		return nil, errors.New("use either -set or -rules, not both")
	case set != "":
		return Load(set)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return Parse(f, path)
	default:
		return nil, errors.New("one of -set or -rules is required")
	}
}
