//! Pike VM: breadth-first NFA simulation with capture slots.
//!
//! Runs in `O(insts × input)` time regardless of the pattern, with
//! leftmost-greedy semantics (thread priority order).

use crate::ast::{Assertion, ClassSet};
use crate::prog::{Inst, Program};

/// A scheduled thread: program counter plus its capture slots.
#[derive(Clone)]
struct Thread {
    pc: usize,
    slots: Vec<Option<usize>>,
}

/// A priority-ordered thread list with O(1) duplicate suppression.
struct ThreadList {
    threads: Vec<Thread>,
    /// generation marks per pc
    seen: Vec<u32>,
    generation: u32,
}

impl ThreadList {
    fn new(len: usize) -> Self {
        ThreadList {
            threads: Vec::with_capacity(16),
            seen: vec![0; len],
            generation: 0,
        }
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.generation += 1;
    }

    fn mark(&mut self, pc: usize) -> bool {
        if self.seen[pc] == self.generation {
            false
        } else {
            self.seen[pc] = self.generation;
            true
        }
    }
}

/// Context for zero-width assertions at a position.
#[derive(Clone, Copy)]
struct AssertCtx {
    at_start: bool,
    at_end: bool,
    prev_is_word: bool,
    next_is_word: bool,
}

impl AssertCtx {
    fn holds(&self, assertion: Assertion) -> bool {
        match assertion {
            Assertion::Start => self.at_start,
            Assertion::End => self.at_end,
            Assertion::WordBoundary => self.prev_is_word != self.next_is_word,
            Assertion::NotWordBoundary => self.prev_is_word == self.next_is_word,
        }
    }
}

/// One step of the epsilon-closure walk in [`add_thread`].
enum Frame {
    /// Follow the program from this pc.
    Explore(usize),
    /// Put a capture slot back as it was before a `Save` below it.
    Restore(usize, Option<usize>),
}

/// The explicit stack and working capture slots of [`add_thread`], kept
/// across calls so the walk allocates only the threads it adds.
#[derive(Default)]
struct Walk {
    stack: Vec<Frame>,
    slots: Vec<Option<usize>>,
}

/// Adds `pc` (and its epsilon closure) to `list` with the given slots, in
/// priority order. The closure is walked depth first on an explicit stack,
/// so a long chain of splits (a large counted repetition) cannot overflow
/// the call stack.
fn add_thread(
    prog: &Program,
    list: &mut ThreadList,
    walk: &mut Walk,
    pc: usize,
    pos: usize,
    ctx: AssertCtx,
    slots: &[Option<usize>],
) {
    walk.slots.clear();
    walk.slots.extend_from_slice(slots);
    walk.stack.push(Frame::Explore(pc));
    while let Some(frame) = walk.stack.pop() {
        let mut pc = match frame {
            Frame::Explore(pc) => pc,
            Frame::Restore(slot, saved) => {
                walk.slots[slot] = saved;
                continue;
            }
        };
        while list.mark(pc) {
            match &prog.insts[pc] {
                Inst::Jmp(target) => pc = *target,
                Inst::Split { first, second } => {
                    walk.stack.push(Frame::Explore(*second));
                    pc = *first;
                }
                Inst::Save(slot) => {
                    walk.stack.push(Frame::Restore(*slot, walk.slots[*slot]));
                    walk.slots[*slot] = Some(pos);
                    pc += 1;
                }
                Inst::Assert(a) if ctx.holds(*a) => pc += 1,
                Inst::Assert(_) => break,
                Inst::Char(_) | Inst::Any | Inst::Class(_) | Inst::Match => {
                    list.threads.push(Thread {
                        pc,
                        slots: walk.slots.clone(),
                    });
                    break;
                }
            }
        }
    }
}

fn inst_matches(inst: &Inst, c: char) -> bool {
    match inst {
        Inst::Char(l) => *l == c,
        Inst::Any => c != '\n',
        Inst::Class(set) => set.matches(c),
        _ => false,
    }
}

/// Searches `haystack[at..]` for the leftmost match; returns capture slots.
pub fn search(prog: &Program, haystack: &str, at: usize) -> Option<Vec<Option<usize>>> {
    let mut clist = ThreadList::new(prog.insts.len());
    let mut nlist = ThreadList::new(prog.insts.len());
    clist.clear();
    nlist.clear();

    let empty_slots = vec![None; prog.slot_count];
    let mut walk = Walk::default();
    let mut matched: Option<Vec<Option<usize>>> = None;

    // Walk positions `at..=len` (the final position processes end-of-input).
    let tail = &haystack[at..];
    let mut iter = tail.char_indices();
    let mut pos = at;
    let mut prev_char: Option<char> = if at == 0 {
        None
    } else {
        haystack[..at].chars().next_back()
    };

    loop {
        let cur: Option<(usize, char)> = iter.next().map(|(i, c)| (at + i, c));
        let next_char = cur.map(|(_, c)| c);
        let ctx = AssertCtx {
            at_start: pos == 0,
            at_end: next_char.is_none(),
            prev_is_word: prev_char.is_some_and(ClassSet::is_word_char),
            next_is_word: next_char.is_some_and(ClassSet::is_word_char),
        };

        // Seed a new starting thread at this position (lowest priority),
        // unless the pattern is anchored past position `at` or we already
        // have a match (leftmost wins).
        if matched.is_none() && (!prog.anchored_start || pos == at) {
            add_thread(prog, &mut clist, &mut walk, 0, pos, ctx, &empty_slots);
        }

        if clist.threads.is_empty() && matched.is_some() {
            break;
        }

        // Process current threads in priority order.
        nlist.clear();
        let threads = std::mem::take(&mut clist.threads);
        let next_ctx_pos = next_char.map(|c| pos + c.len_utf8());
        for thread in &threads {
            match &prog.insts[thread.pc] {
                Inst::Match => {
                    matched = Some(thread.slots.clone());
                    // Lower-priority threads cannot yield a better match.
                    break;
                }
                inst => {
                    if let (Some(c), Some(_npos)) = (next_char, next_ctx_pos) {
                        if inst_matches(inst, c) {
                            add_thread_next(&mut nlist, thread.pc + 1, &thread.slots);
                        }
                    }
                }
            }
        }

        let (new_pos, consumed) = match cur {
            Some((i, c)) => (i + c.len_utf8(), Some(c)),
            None => break,
        };

        // Move nlist's raw threads into clist, expanding epsilon closures with
        // the context of the new position.
        std::mem::swap(&mut clist, &mut nlist);
        let raw = std::mem::take(&mut clist.threads);
        clist.clear();
        // Determine context at new_pos.
        let peek_next = haystack[new_pos..].chars().next();
        let ctx2 = AssertCtx {
            at_start: new_pos == 0,
            at_end: peek_next.is_none(),
            prev_is_word: consumed.is_some_and(ClassSet::is_word_char),
            next_is_word: peek_next.is_some_and(ClassSet::is_word_char),
        };
        for t in raw {
            add_thread(prog, &mut clist, &mut walk, t.pc, new_pos, ctx2, &t.slots);
        }

        prev_char = consumed;
        pos = new_pos;

        if matched.is_some() && clist.threads.is_empty() {
            break;
        }
    }

    matched
}

/// Queues a thread for the next position without epsilon expansion (done when
/// the position's context is known).
fn add_thread_next(list: &mut ThreadList, pc: usize, slots: &[Option<usize>]) {
    if !list.mark(pc) {
        return;
    }
    list.threads.push(Thread {
        pc,
        slots: slots.to_vec(),
    });
}
