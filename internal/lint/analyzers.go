package lint

// All returns the full dcnlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Confinedgo,
		Dbmunits,
		Deliveryfreeze,
		Detsource,
		Maporder,
		Seedtaint,
		Snapfreeze,
	}
}

// ByName resolves an analyzer by its directive name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
