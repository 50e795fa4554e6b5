//! Threads and channels outside the trial runner.

pub fn fire_and_forget() {
    std::thread::spawn(|| {}); //~ clippy::disallowed_methods
}

pub fn pipe() -> usize {
    let (tx, rx) = std::sync::mpsc::channel::<usize>(); //~ clippy::disallowed_methods
    drop(tx);
    rx.iter().count()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from) //~ clippy::disallowed_methods
}
