//! Signature shapes the symbol scanner must read past to find the
//! body: a `;` inside an array type, `impl Trait` in argument and
//! return position. Every fn with a body here calls `helper` once.

pub fn lanes(best: &mut [i32; 16]) {
    helper(best[0]);
}

pub fn each(f: impl Fn(u32) -> u32) -> impl Iterator<Item = u32> {
    helper(0);
    (0..3).map(f)
}

pub trait Kernel {
    fn declared(&self, window: [u8; 4]);
    fn provided(&self, table: &[[i8; 16]; 2]) {
        helper(i32::from(table[0][0]));
    }
}

pub struct Row;

impl Row {
    pub fn after_the_trait(&self, cells: &mut [i32; 8]) {
        helper(cells[0]);
    }
}

fn helper(_: i32) {}
