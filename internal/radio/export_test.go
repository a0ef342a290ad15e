package radio

// SegmentPaths returns how many reception segments r has settled by each
// path: the quiet bound, the zero cut, the bracket and the exact closed
// form.
func SegmentPaths(r *Radio) (quiet, zeroCut, bracket, exact int) {
	s := r.segments
	return s[pathQuiet], s[pathZeroCut], s[pathBracket], s[pathExact]
}
