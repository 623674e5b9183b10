package lint

import "strconv"

// checkNoGob keeps the repository on one codec: every durable and network
// value goes through internal/codec, so a non-test import of encoding/gob
// (under any name, blank included) is flagged. Test files may use it, e.g.
// to compare against a reference encoding.
func checkNoGob(f *file) []Diagnostic {
	if f.isTest {
		return nil
	}
	var diags []Diagnostic
	for _, imp := range f.ast.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != "encoding/gob" {
			continue
		}
		diags = append(diags, Diagnostic{
			Pos:     f.fset.Position(imp.Pos()),
			Check:   "nogob",
			Message: "import of encoding/gob; encode through internal/codec (or annotate: //lint:allow nogob <reason>)",
		})
	}
	return diags
}
