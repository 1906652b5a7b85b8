//! Edge-list and binary CSR IO.
//!
//! The paper's datasets ship as SNAP-style edge lists; this module reads and
//! writes that format plus a compact binary CSR cache so generated analogues
//! can be reused across harness runs.

use std::io::{self, BufRead, BufWriter, Read, Write};
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};

use crate::coo::Coo;
use crate::csr::Csr;

/// Parse a SNAP-style whitespace-separated edge list (`# comment` lines
/// skipped). Vertices are remapped densely in order of first appearance;
/// the graph is stored symmetrically with unit weights.
pub fn read_edge_list(reader: impl BufRead) -> io::Result<Csr> {
    let mut map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let (a, b) = match (it.next(), it.next()) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad edge line: {t:?}"),
                ))
            }
        };
        let parse = |s: &str| -> io::Result<u64> {
            s.parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}: {s:?}")))
        };
        let (a, b) = (parse(a)?, parse(b)?);
        let next = map.len() as u32;
        let ia = *map.entry(a).or_insert(next);
        let next = map.len() as u32;
        let ib = *map.entry(b).or_insert(next);
        if ia != ib {
            edges.push((ia, ib));
        }
    }
    let n = map.len();
    let mut coo = Coo::new(n, n);
    for (u, v) in edges {
        coo.push(u, v, 1.0);
        coo.push(v, u, 1.0);
    }
    let mut c = coo;
    c.deduplicate();
    c.vals.iter_mut().for_each(|v| *v = 1.0);
    let csr = c.to_csr();
    // Every ingest path validates before the matrix reaches a kernel:
    // a defect here means the reader (not the caller) is broken, but the
    // contract is the same — no unvalidated CSR leaves this module.
    csr.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(csr)
}

/// Read an edge list from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> io::Result<Csr> {
    let f = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(f))
}

/// Write a CSR matrix's upper-triangular edges as an edge list.
pub fn write_edge_list(csr: &Csr, writer: impl Write) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for r in 0..csr.nrows {
        for &c in csr.row_cols(r) {
            if (c as usize) >= r {
                writeln!(w, "{r}\t{c}")?;
            }
        }
    }
    w.flush()
}

const MAGIC: u32 = 0x4853_4d43; // "HSMC"

/// Serialize a CSR matrix to a compact binary blob.
pub fn csr_to_bytes(csr: &Csr) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(24 + csr.byte_size() as usize);
    buf.put_u32_le(MAGIC);
    buf.put_u64_le(csr.nrows as u64);
    buf.put_u64_le(csr.ncols as u64);
    buf.put_u64_le(csr.nnz() as u64);
    for &p in &csr.row_ptr {
        buf.put_u32_le(p);
    }
    for &c in &csr.col_idx {
        buf.put_u32_le(c);
    }
    for &v in &csr.vals {
        buf.put_f32_le(v);
    }
    buf.to_vec()
}

/// Deserialize a CSR matrix written by [`csr_to_bytes`].
pub fn csr_from_bytes(mut data: &[u8]) -> io::Result<Csr> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    if data.remaining() < 28 {
        return Err(bad("truncated header"));
    }
    if data.get_u32_le() != MAGIC {
        return Err(bad("bad magic"));
    }
    let nrows = data.get_u64_le() as usize;
    let ncols = data.get_u64_le() as usize;
    let nnz = data.get_u64_le() as usize;
    // Header fields are untrusted: size arithmetic must not overflow, and a
    // body that cannot possibly be present must fail cleanly rather than
    // abort on allocation.
    let need = nrows
        .checked_add(1)
        .and_then(|r| r.checked_mul(4))
        .and_then(|r| nnz.checked_mul(8).and_then(|e| r.checked_add(e)))
        .ok_or_else(|| bad("header sizes overflow"))?;
    if data.remaining() < need {
        return Err(bad("truncated body"));
    }
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    for _ in 0..=nrows {
        row_ptr.push(data.get_u32_le());
    }
    let mut col_idx = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        col_idx.push(data.get_u32_le());
    }
    let mut vals = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        vals.push(data.get_f32_le());
    }
    if row_ptr.last().copied() != Some(nnz as u32) {
        return Err(bad("inconsistent row_ptr"));
    }
    let csr = Csr {
        nrows,
        ncols,
        row_ptr,
        col_idx,
        vals,
    };
    csr.validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok(csr)
}

/// Write a binary CSR cache file.
pub fn write_csr_file(csr: &Csr, path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, csr_to_bytes(csr))
}

/// Read a binary CSR cache file.
pub fn read_csr_file(path: impl AsRef<Path>) -> io::Result<Csr> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    csr_from_bytes(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn edge_list_roundtrip() {
        let g = gen::erdos_renyi(50, 120, 3);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(io::BufReader::new(&buf[..])).unwrap();
        assert_eq!(back.nnz(), g.nnz());
        assert_eq!(back.nrows, g.nrows);
    }

    #[test]
    fn edge_list_skips_comments_and_self_loops() {
        let text = "# comment\n% other comment\n0 1\n1 1\n1 2\n";
        let g = read_edge_list(io::BufReader::new(text.as_bytes())).unwrap();
        assert_eq!(g.nrows, 3);
        assert_eq!(g.nnz(), 4); // two undirected edges, stored both ways
    }

    #[test]
    fn edge_list_rejects_garbage() {
        let text = "0 x\n";
        assert!(read_edge_list(io::BufReader::new(text.as_bytes())).is_err());
        let text = "0\n";
        assert!(read_edge_list(io::BufReader::new(text.as_bytes())).is_err());
    }

    #[test]
    fn binary_roundtrip_exact() {
        let g = gen::barabasi_albert(100, 3, 5);
        let bytes = csr_to_bytes(&g);
        let back = csr_from_bytes(&bytes).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_rejects_corruption() {
        let g = gen::erdos_renyi(20, 30, 1);
        let mut bytes = csr_to_bytes(&g);
        bytes[0] ^= 0xff; // break magic
        assert!(csr_from_bytes(&bytes).is_err());
        let bytes = csr_to_bytes(&g);
        assert!(csr_from_bytes(&bytes[..10]).is_err());
        assert!(csr_from_bytes(&bytes[..bytes.len() - 4]).is_err());
    }

    #[test]
    fn binary_rejects_structurally_corrupt_payloads() {
        // Valid framing, broken invariants: a column index out of range.
        let g = gen::erdos_renyi(20, 30, 1);
        let mut bytes = csr_to_bytes(&g);
        // col_idx starts after 28-byte header + row_ptr array.
        let col_off = 28 + (g.nrows + 1) * 4;
        bytes[col_off..col_off + 4].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(csr_from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let g = gen::community(64, 100, 4, 0.9, 2);
        let dir = hc_parallel::fsio::scratch("spmm-io").expect("scratch dir");
        let path = dir.join("g.csrbin");
        write_csr_file(&g, &path).unwrap();
        assert_eq!(read_csr_file(&path).unwrap(), g);
    }
}
