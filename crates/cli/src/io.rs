//! Plain-text file formats: positions (`x y` per line) and per-node
//! integer assignments (`node value` per line).

use crate::{err, CliError};
use sinr_geometry::{Bbox, Point};

/// Parses a positions document: one `x y` pair per line; blank lines and
/// `#`-comments ignored.
///
/// # Errors
///
/// Fails on malformed lines or non-finite coordinates, citing the line
/// number, and on coordinates whose extent along an axis overflows `f64`
/// (no unit-disk graph can be built over them), naming the axis.
pub fn parse_positions(text: &str) -> Result<Vec<Point>, CliError> {
    let mut pts = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(xs), Some(ys), None) = (it.next(), it.next(), it.next()) else {
            return Err(err(format!(
                "line {}: expected 'x y', got {raw:?}",
                lineno + 1
            )));
        };
        let x: f64 = xs
            .parse()
            .map_err(|_| err(format!("line {}: bad x {xs:?}", lineno + 1)))?;
        let y: f64 = ys
            .parse()
            .map_err(|_| err(format!("line {}: bad y {ys:?}", lineno + 1)))?;
        if !x.is_finite() || !y.is_finite() {
            return Err(err(format!("line {}: non-finite coordinate", lineno + 1)));
        }
        pts.push(Point::new(x, y));
    }
    if let Some(b) = Bbox::enclosing(&pts) {
        let (lo, hi) = (b.min(), b.max());
        for (axis, from, to, extent) in
            [("x", lo.x, hi.x, b.width()), ("y", lo.y, hi.y, b.height())]
        {
            if !extent.is_finite() {
                return Err(err(format!(
                    "{axis} coordinates run from {from:e} to {to:e}, an extent that overflows f64"
                )));
            }
        }
    }
    Ok(pts)
}

/// Renders positions in the same format `parse_positions` reads.
pub fn format_positions(pts: &[Point]) -> String {
    let mut out = String::with_capacity(pts.len() * 24);
    for p in pts {
        out.push_str(&format!("{} {}\n", p.x, p.y));
    }
    out
}

/// Parses a per-node assignment document: `node value` per line.
///
/// Returns the assignment as a dense vector; every node in `0..n` must
/// appear exactly once.
///
/// # Errors
///
/// Fails on malformed lines, duplicates, or missing nodes.
pub fn parse_assignment(text: &str, n: usize) -> Result<Vec<usize>, CliError> {
    let mut values: Vec<Option<usize>> = vec![None; n];
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(vs), Some(cs), None) = (it.next(), it.next(), it.next()) else {
            return Err(err(format!(
                "line {}: expected 'node value', got {raw:?}",
                lineno + 1
            )));
        };
        let v: usize = vs
            .parse()
            .map_err(|_| err(format!("line {}: bad node id {vs:?}", lineno + 1)))?;
        let c: usize = cs
            .parse()
            .map_err(|_| err(format!("line {}: bad value {cs:?}", lineno + 1)))?;
        if v >= n {
            return Err(err(format!("line {}: node {v} out of range", lineno + 1)));
        }
        if values[v].is_some() {
            return Err(err(format!("line {}: duplicate node {v}", lineno + 1)));
        }
        values[v] = Some(c);
    }
    values
        .into_iter()
        .enumerate()
        .map(|(v, c)| c.ok_or_else(|| err(format!("node {v} missing from assignment"))))
        .collect()
}

/// Renders a per-node assignment in the format `parse_assignment` reads.
pub fn format_assignment(values: &[usize]) -> String {
    let mut out = String::with_capacity(values.len() * 8);
    for (v, c) in values.iter().enumerate() {
        out.push_str(&format!("{v} {c}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_roundtrip() {
        let pts = vec![Point::new(1.5, -2.0), Point::new(0.0, 3.25)];
        let text = format_positions(&pts);
        assert_eq!(parse_positions(&text).unwrap(), pts);
    }

    #[test]
    fn positions_allow_comments_and_blanks() {
        let text = "# header\n1 2\n\n3 4  # inline\n";
        let pts = parse_positions(text).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
    }

    #[test]
    fn positions_reject_malformed() {
        assert!(parse_positions("1\n").is_err());
        assert!(parse_positions("1 2 3\n").is_err());
        assert!(parse_positions("a b\n").is_err());
        assert!(parse_positions("inf 0\n").is_err());
        // An extent that overflows f64 along an axis is named by its axis.
        for (text, axis) in [("-1e308 0\n1e308 0\n", "x"), ("0 -1e308\n0 1e308\n", "y")] {
            let e = parse_positions(text).unwrap_err().to_string();
            assert!(e.starts_with(&format!("{axis} coordinates")), "{e}");
        }
        assert_eq!(parse_positions("0 0\n1e300 -1e300\n").unwrap().len(), 2);
    }

    #[test]
    fn assignment_roundtrip() {
        let values = vec![3, 0, 7];
        let text = format_assignment(&values);
        assert_eq!(parse_assignment(&text, 3).unwrap(), values);
    }

    #[test]
    fn assignment_rejects_gaps_and_dupes() {
        assert!(parse_assignment("0 1\n0 2\n", 2).is_err()); // dup
        assert!(parse_assignment("0 1\n", 2).is_err()); // missing node 1
        assert!(parse_assignment("5 1\n", 2).is_err()); // out of range
    }
}
