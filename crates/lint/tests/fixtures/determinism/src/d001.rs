//! Hash-collection iteration: visit order varies between runs.

use std::collections::HashMap; //~ clippy::disallowed_types

pub fn sum_values(counts: &HashMap<String, u64>) -> u64 { //~ clippy::disallowed_types
    let mut total = 0;
    for pair in counts {
        total += pair.1;
    }
    total + counts.values().sum::<u64>()
}

pub fn distinct(items: &[u32]) -> usize {
    items.iter().collect::<std::collections::HashSet<_>>().len() //~ clippy::disallowed_types
}
