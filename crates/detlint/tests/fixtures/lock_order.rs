// Fixture: R6 lock_order — no lock may be taken while another is held:
// nestings in either order, same-class nesting, a lock held across a
// call into a locking function, and audited suppressions. Scanned,
// never compiled.

use std::sync::Mutex;

struct Pools {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
    gamma: Mutex<u32>,
}

impl Pools {
    fn nested(&self) {
        let a = self.alpha.lock().unwrap();
        let b = self.beta.lock().unwrap();
        drop(b);
        drop(a);
    }

    fn reversed(&self) {
        let g = self.gamma.lock().unwrap();
        let a = self.alpha.lock().unwrap();
        drop(a);
        drop(g);
    }

    fn same_class(&self) {
        let first = self.beta.lock().unwrap();
        let second = self.beta.lock().unwrap();
        drop(second);
        drop(first);
    }

    fn held_across_call(&self) {
        let g = self.gamma.lock().unwrap();
        self.take_alpha();
        drop(g);
    }

    fn take_alpha(&self) {
        let _a = self.alpha.lock().unwrap();
    }

    fn sequential(&self) {
        *self.alpha.lock().unwrap() += 1;
        *self.gamma.lock().unwrap() += 1;
    }

    fn audited(&self) {
        let g = self.gamma.lock().unwrap();
        // detlint::allow(lock_order): fixture — demonstrates an audited nesting
        let _b = self.beta.lock().unwrap();
        drop(g);
    }

    fn audited_forward(&self) {
        let b = self.beta.lock().unwrap();
        // detlint::allow(lock_order): fixture — one half of an audited pair of reversed nestings
        let _g = self.gamma.lock().unwrap();
        drop(b);
    }

    fn audited_backward(&self) {
        let g = self.gamma.lock().unwrap();
        // detlint::allow(lock_order): fixture — the other half; two audits leave nothing to report
        let _b = self.beta.lock().unwrap();
        drop(g);
    }
}
