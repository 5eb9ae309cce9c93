//! R1 fixtures: a `base.field` receiver is typed by its base binding
//! when the scanner sees the binding's type, so a hash-container field
//! of one struct does not taint a same-named field of another.
use std::collections::HashMap;

struct Memo {
    interner: HashMap<String, u32>,
}

struct State {
    interner: Vec<String>,
}

impl Memo {
    fn dump(&self) -> Vec<String> {
        self.interner.keys().cloned().collect()
    }

    fn restore(&mut self, state: &State) {
        for (id, text) in state.interner.iter().enumerate() {
            self.interner.insert(text.clone(), id as u32);
        }
    }

    fn merge(&mut self, other: &Self) -> Vec<u32> {
        other.interner.values().copied().collect()
    }
}

fn typed_let(load: impl Fn() -> State) -> Vec<String> {
    let state: State = load();
    state.interner.iter().cloned().collect()
}

fn unknown_type(state: &crate::elsewhere::Snapshot) -> Vec<String> {
    state.interner.iter().cloned().collect()
}

fn untyped_rebinding(state: &State, memo: Memo) -> Vec<String> {
    let state = memo;
    state.interner.keys().cloned().collect()
}
