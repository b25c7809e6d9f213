//! The little JSON the benchmark writes, by hand.

use std::fmt::Write as _;

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of Rust's shortest round-trip form.
///
/// # Panics
/// On NaN or an infinity, which JSON cannot hold.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "JSON numbers are finite, got {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_str("Intel(R) Xeon(R)"), "\"Intel(R) Xeon(R)\"");
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_num(1.203456789), "1.203456789");
        assert_eq!(json_num(2.0), "2");
        assert_eq!(json_num(0.000125), "0.000125");
    }
}
