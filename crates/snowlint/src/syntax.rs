//! Token-tree navigation for the flow pass and the Table 1 parser: block
//! matching and `match` arm splitting over the
//! lexer's flat token stream. These helpers only track bracket depth —
//! they never need full expression parsing, which is what keeps the
//! lint fast and dependency-free.

use crate::lexer::{TokKind, Token};

/// Index of the token closing the block opened at `open` (which must be
/// a `{`, `[` or `(`), or None if unbalanced.
pub fn block_end(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" | "[" | "(" => depth += 1,
                "}" | "]" | ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Split the arms of the `match` block whose `{` is at `open` into
/// `(pattern, body)` token-slices.
pub fn split_arms(toks: &[Token], open: usize) -> Vec<(&[Token], &[Token])> {
    let mut arms = Vec::new();
    let Some(mend) = block_end(toks, open) else {
        return arms;
    };
    let mut j = open + 1;
    while j < mend {
        // Pattern until a depth-0 `=>`.
        let pstart = j;
        let mut depth = 0i32;
        while j < mend {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    "=>" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= mend {
            break;
        }
        let pattern = &toks[pstart..j];
        j += 1; // skip `=>`
        let bstart = j;
        let body;
        if j < mend && toks[j].is_punct("{") {
            let bend = block_end(toks, j).unwrap_or(mend).min(mend);
            body = &toks[bstart..=bend.min(mend.saturating_sub(1))];
            j = bend + 1;
            if j < mend && toks[j].is_punct(",") {
                j += 1;
            }
        } else {
            let mut depth = 0i32;
            while j < mend {
                let t = &toks[j];
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "{" | "(" | "[" => depth += 1,
                        "}" | ")" | "]" => depth -= 1,
                        "," if depth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            body = &toks[bstart..j];
            if j < mend {
                j += 1; // skip `,`
            }
        }
        arms.push((pattern, body));
    }
    arms
}

/// Split the first `match` block inside `[start, end)` into
/// `(pattern, body)` token-slices per arm.
pub fn match_arms(toks: &[Token], start: usize, end: usize) -> Vec<(&[Token], &[Token])> {
    let mut i = start;
    while i < end && !toks[i].is_ident("match") {
        i += 1;
    }
    while i < end && !toks[i].is_punct("{") {
        i += 1;
    }
    if i >= end {
        return Vec::new();
    }
    split_arms(toks, i)
}

/// Find the `{` opening the first `match <recv> . <field> {` inside
/// `[start, end)` — e.g. `find_match_on(toks, a, b, "env", "msg")` for
/// a protocol handler's dispatch match. Returns the index of the `{`.
pub fn find_match_on(
    toks: &[Token],
    start: usize,
    end: usize,
    recv: &str,
    field: &str,
) -> Option<usize> {
    let mut i = start;
    while i + 4 < end {
        if toks[i].is_ident("match")
            && toks[i + 1].is_ident(recv)
            && toks[i + 2].is_punct(".")
            && toks[i + 3].is_ident(field)
            && toks[i + 4].is_punct("{")
        {
            return Some(i + 4);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn match_on_env_msg_is_found_and_split() {
        let src = r#"
            fn handler(ctx: &mut Ctx) {
                let x = match mode { A => 1, B => 2 };
                for env in ctx.recv() {
                    match env.msg {
                        Msg::A { id } => { go(id); }
                        Msg::B { .. } | Msg::C { .. } => other(),
                        _ => {}
                    }
                }
            }
        "#;
        let lx = lex(src);
        let open =
            find_match_on(&lx.tokens, 0, lx.tokens.len(), "env", "msg").expect("dispatch match");
        let arms = split_arms(&lx.tokens, open);
        assert_eq!(arms.len(), 3);
        assert!(arms[0].0.iter().any(|t| t.is_ident("A")));
        assert!(arms[1].0.iter().any(|t| t.is_ident("C")));
        // The earlier scrutinee match is not picked up.
        assert!(!arms[0].1.iter().any(|t| t.text == "1"));
    }
}
