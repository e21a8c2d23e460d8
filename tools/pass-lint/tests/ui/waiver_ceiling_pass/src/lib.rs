//! Two reasoned waivers, each honored.
fn first(&self) -> u8 {
    // pass-lint: allow(l1, reason="index 0 of a table that is never empty by construction")
    self.table[0]
}

fn second(&self) -> u8 {
    // pass-lint: allow(l1, reason="index 1 of a table that always holds two entries")
    self.table[1]
}
