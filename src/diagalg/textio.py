"""Line-oriented textual formats for hand-authoring inputs.

Scalars are written "a/b" over Q and "r" (or "r mod p") over F_p; fields as
"Q" or "F<p>" (the flag spelling "Fp:<p>" is also accepted).  Polynomials
and vectors are bracketed coefficient lists, matrices are lists of row
lists, sequences are "pre=[...];per=[...]".  Operators, families, algebras,
and tree decompositions are small multi-line documents; every parser
reports the offending line on failure.
"""

import re

from .errors import ParseError, SizeMismatch
from .fields import EPSeq, GF, Polynomial, QQ
from .funcalg import FiniteAlgebra, SetMap
from .idempotents import ExplicitFamily, PartitionFamily, PatternFamily
from .linalg import Matrix, Subspace, rref_rows
from .operators import FiniteVector, Operator
from .treegen import TreeDecomposition


def parse_field(text):
    text = text.strip()
    if text in ("Q", "QQ"):
        return QQ
    m = re.fullmatch(r"F(?:p:)?(\d+)", text)
    if m:
        try:
            return GF(int(m.group(1)))
        except ValueError as exc:
            raise ParseError(str(exc))
    raise ParseError(f"unknown field {text!r} (expected Q or Fp:<p>)")


def format_field(field):
    return "Q" if field.char == 0 else f"F{field.char}"


def _split_top(text, sep=","):
    """Split on sep at bracket depth zero."""
    if not any(ch in text for ch in "[]()"):
        return [p.strip() for p in text.split(sep)]
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def parse_scalar(field, text):
    try:
        return field.parse_scalar(text)
    except (ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}")


def parse_scalar_list(field, text):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a bracketed list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [parse_scalar(field, p) for p in _split_top(inner)]


def format_scalar_list(field, values):
    return "[" + ",".join(field.format_scalar(v) for v in values) + "]"


def parse_polynomial(field, text):
    return Polynomial(field, parse_scalar_list(field, text))


def format_polynomial(poly):
    return format_scalar_list(poly.field, list(poly.coeffs))


def _parse_rows(field, text):
    """The rows of a matrix literal [[...],...], as lists of field scalars."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError(f"expected a matrix [[...],...], got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [parse_scalar_list(field, part) for part in _split_top(inner)]


def parse_matrix(field, text):
    return Matrix(field, _parse_rows(field, text))


def format_matrix(M):
    return "[" + ",".join(format_scalar_list(M.field, list(r)) for r in M.rows) + "]"


_EPSEQ_RE = re.compile(r"pre\s*=\s*(\[[^\]]*\])\s*[;\s]\s*per\s*=\s*(\[[^\]]*\])")


def parse_epseq(field, text):
    m = _EPSEQ_RE.search(text)
    if not m:
        raise ParseError(f"expected pre=[...];per=[...], got {text!r}")
    pre = parse_scalar_list(field, m.group(1))
    per = parse_scalar_list(field, m.group(2))
    if not per:
        raise ParseError("period must be nonempty")
    return EPSeq(field, pre, per)


def format_epseq(seq):
    return (f"pre={format_scalar_list(seq.field, list(seq.pre))};"
            f"per={format_scalar_list(seq.field, list(seq.per))}")


def parse_vector(field, text):
    text = text.strip()
    if not text.startswith("vec"):
        raise ParseError(f"expected 'vec i:s ...', got {text!r}")
    entries = {}
    # an F_p scalar may be written "r mod p": glue it into one chunk
    for chunk in re.sub(r"\s+mod\s+", "mod", text[3:]).split():
        if ":" not in chunk:
            raise ParseError(f"bad vector entry {chunk!r}")
        idx, val = chunk.split(":", 1)
        entries[int(idx)] = parse_scalar(field, val)
    return FiniteVector(field, entries)


def format_vector(v):
    fmt = v.field.format_scalar
    body = " ".join(f"{i}:{fmt(x)}" for i, x in sorted(v.entries.items()))
    return f"vec {body}".rstrip()


_BAND_RE = re.compile(r"band\s+(-?\d+)\s*:\s*(.*)")
_CORR_RE = re.compile(r"corr\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*=\s*(.+)")


def parse_operator_lines(lines, field=None, start_line=1):
    """Parse an operator block: optional 'field X' header, then 'band d:
    pre=[...] per=[...]' and 'corr (i,j)=s' lines."""
    bands = {}
    corrections = {}
    for offset, raw in enumerate(lines):
        line = raw.strip()
        lineno = start_line + offset
        if not line or line.startswith("#"):
            continue
        if line.startswith("field"):
            field = parse_field(line[5:])
            continue
        if field is None:
            raise ParseError("operator needs a field header", line=lineno)
        m = _BAND_RE.fullmatch(line)
        if m:
            d = int(m.group(1))
            seq = parse_epseq(field, m.group(2))
            if d in bands:
                raise ParseError(f"duplicate band {d}", line=lineno)
            bands[d] = seq
            continue
        m = _CORR_RE.fullmatch(line)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            corrections[(i, j)] = parse_scalar(field, m.group(3))
            continue
        raise ParseError(f"unrecognized operator line {line!r}", line=lineno)
    if field is None:
        raise ParseError("operator needs a field header")
    return Operator(field, bands, corrections)


def parse_operator(text):
    return parse_operator_lines(text.splitlines())


def format_operator(T):
    lines = [f"field {format_field(T.field)}"]
    for d, seq in T.bands.items():
        lines.append(f"band {d}: {format_epseq(seq)}")
    return "\n".join(lines)


_PARTITION_RE = re.compile(
    r"partition\s+pre\s*=\s*(\[[^\]]*\])\s+per\s*=\s*(\[[^\]]*\])"
    r"(?:\s+except\s*\{([^}]*)\})?")
_PATTERN_RE = re.compile(r"pattern\s+i0\s*=\s*(\d+)\s+terms\s*\[(.*)\]")
_TERM_RE = re.compile(
    r"\(\s*r\s*=\s*(-?\d+)\*i([+-]\d+)\s*,\s*c\s*=\s*(-?\d+)\*i([+-]\d+)\s*\)")


def _parse_int_list(text):
    inner = text.strip()[1:-1].strip()
    if not inner:
        return []
    return [int(p) for p in _split_top(inner)]


def parse_family(text):
    """Family document: a 'field X' line followed by one of
    'partition pre=[...] per=[...] except{i:c,...}',
    'pattern i0=N terms[(r=a*i+b, c=c*i+d), ...]', or
    'explicit N' with N operator blocks separated by '---' lines."""
    lines = text.splitlines()
    field = None
    idx = 0
    while idx < len(lines):
        line = lines[idx].strip()
        idx += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith("field"):
            field = parse_field(line[5:])
            continue
        if line.startswith("partition"):
            if field is None:
                raise ParseError("family needs a field header", line=idx)
            m = _PARTITION_RE.fullmatch(line)
            if not m:
                raise ParseError("bad partition line", line=idx)
            pre = _parse_int_list(m.group(1))
            per = _parse_int_list(m.group(2))
            exceptions = {}
            if m.group(3):
                for chunk in m.group(3).split(","):
                    if chunk.strip():
                        i, c = chunk.split(":")
                        exceptions[int(i)] = int(c)
            return PartitionFamily(field, pre, per, exceptions)
        if line.startswith("pattern"):
            if field is None:
                raise ParseError("family needs a field header", line=idx)
            m = _PATTERN_RE.fullmatch(line)
            if not m:
                raise ParseError("bad pattern line", line=idx)
            terms = []
            for t in _TERM_RE.finditer(m.group(2)):
                ar, br, ac, bc = (int(t.group(k)) for k in range(1, 5))
                terms.append((ar, br, ac, bc))
            if not terms:
                raise ParseError("pattern needs at least one term", line=idx)
            return PatternFamily(field, int(m.group(1)), terms)
        if line.startswith("explicit"):
            if field is None:
                raise ParseError("family needs a field header", line=idx)
            count = int(line.split()[1])
            blocks = [(idx + 1, [])]  # (document line of the block's start, lines)
            for lineno, raw in enumerate(lines[idx:], start=idx + 1):
                if raw.strip() == "---":
                    blocks.append((lineno + 1, []))
                else:
                    blocks[-1][1].append(raw)
            members = [
                parse_operator_lines(block, field=field, start_line=start)
                for start, block in blocks
                if any(b.strip() for b in block)
            ]
            if len(members) != count:
                raise ParseError(
                    f"explicit family announced {count} members, found {len(members)}")
            return ExplicitFamily(field, members)
        raise ParseError(f"unrecognized family line {line!r}", line=idx)
    raise ParseError("empty family document")


def format_family(fam):
    field_line = f"field {format_field(fam.field)}"
    if fam.kind == "partition":
        return f"{field_line}\npartition pre={list(fam.pre)} per={list(fam.per)}"
    if fam.kind == "pattern":
        terms = ", ".join(
            f"(r={a}*i{b:+d}, c={c}*i{d:+d})" for a, b, c, d in fam.terms)
        return f"{field_line}\npattern i0={fam.i0} terms[{terms}]"
    blocks = []
    for op in fam.ops:
        body = "\n".join(format_operator(op).splitlines()[1:])  # drop field line
        blocks.append(body if body else "# zero operator")
    return f"{field_line}\nexplicit {len(fam.ops)}\n" + "\n---\n".join(blocks)


_SC_RE = re.compile(r"sc\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*=\s*(.+)")


def parse_finite_algebra(text):
    """Structure-constant document: 'field X', 'algebra dim=N',
    'unit [...]', then 'sc (i,j,k)=v' lines for the nonzero constants."""
    field = None
    dim = None
    unit = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("field"):
            field = parse_field(line[5:])
            continue
        if line.startswith("algebra"):
            m = re.fullmatch(r"algebra\s+dim\s*=\s*(\d+)", line)
            if not m:
                raise ParseError("bad algebra line", line=lineno)
            dim = int(m.group(1))
            continue
        if line.startswith("unit"):
            if field is None:
                raise ParseError("unit before field header", line=lineno)
            unit = parse_scalar_list(field, line[4:].strip())
            continue
        m = _SC_RE.fullmatch(line)
        if m:
            if field is None:
                raise ParseError("structure constants before field header", line=lineno)
            entries.append((int(m.group(1)), int(m.group(2)), int(m.group(3)),
                            parse_scalar(field, m.group(4))))
            continue
        raise ParseError(f"unrecognized algebra line {line!r}", line=lineno)
    if field is None or dim is None or unit is None:
        raise ParseError("algebra document needs field, dim, and unit")
    table = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k, v) in entries:
        if not (i < dim and j < dim and k < dim):
            raise ParseError(f"structure index out of range in ({i},{j},{k})")
        table[i][j][k] = v
    return FiniteAlgebra(field, table, unit)


def format_finite_algebra(A):
    lines = [f"field {format_field(A.field)}", f"algebra dim={A.dim}",
             f"unit {format_scalar_list(A.field, list(A.unit))}"]
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                v = A.table[i][j][k]
                if v != A.field.zero:
                    lines.append(f"sc ({i},{j},{k})={A.field.format_scalar(v)}")
    return "\n".join(lines)


_MAP_RE = re.compile(r"map\s+(\d+)\s*->\s*(\d+)\s+(\[[^\]]*\])")


def parse_setmap(text):
    m = _MAP_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"expected 'map N->M [images]', got {text.strip()!r}")
    return SetMap(int(m.group(1)), int(m.group(2)), _parse_int_list(m.group(3)))


def format_setmap(phi):
    return f"map {phi.domain}->{phi.codomain} {list(phi.images)}"


def format_tree(d):
    lines = [f"tree depth={d.depth} window={d.window} field {format_field(d.field)}",
             f"w {format_scalar_list(d.field, list(d.w))}"]
    for name in sorted(d.nodes, key=lambda s: (len(s), s)):
        label = name if name else "."
        rows = format_matrix(d.nodes[name].basis_matrix())
        lines.append(f"node {label} {rows}")
    return "\n".join(lines)


def parse_tree(text, verify_on_load=True):
    header = None
    w = None
    nodes = {}
    field = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("tree"):
            m = re.fullmatch(
                r"tree\s+depth\s*=\s*(\d+)\s+window\s*=\s*(\d+)\s+field\s+(\S+)", line)
            if not m:
                raise ParseError("bad tree header", line=lineno)
            field = parse_field(m.group(3))
            header = (int(m.group(1)), int(m.group(2)))
            continue
        if header is None:
            raise ParseError("tree document must start with its header", line=lineno)
        if line.startswith("w "):
            w = parse_scalar_list(field, line[2:].strip())
            continue
        if line.startswith("node"):
            _, label, text_rows = line.split(" ", 2)
            name = "" if label == "." else label
            # parsed scalars are field scalars already: reduce them as they are
            rows = _parse_rows(field, text_rows)
            if any(len(row) != header[1] for row in rows):
                raise SizeMismatch("vector length differs from ambient dimension")
            reduced, pivots = rref_rows(rows, field)
            nodes[name] = Subspace(field, header[1], reduced[: len(pivots)])
            continue
        raise ParseError(f"unrecognized tree line {line!r}", line=lineno)
    if header is None or w is None:
        raise ParseError("incomplete tree document")
    d = TreeDecomposition(field, header[0], header[1], nodes, w)
    if verify_on_load:
        from .treegen import verify

        rep = verify(d)
        if not rep.ok:
            raise ParseError(
                f"tree fails verification: clause {rep.clause} at {rep.witness!r}")
    return d
