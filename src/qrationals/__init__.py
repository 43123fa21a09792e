"""Exact arithmetic for q-deformed rational numbers.

The package constructs the canonical deformation [a/b]_q as a ratio of
integer polynomials (via alternating continued fractions or weighted Farey
mediants on the Stern-Brocot tree), differentiates it exactly at q = 1,
verifies closed-form first- and second-derivative expressions, extracts
lineages with their polynomial weight tables, evaluates generalized Dedekind
sums with their reciprocity and identity battery, and recovers the
closed-form coefficients by exact linear fits.  There is no floating point
anywhere in the computational path.

The namespace is the union of the `__all__` lists of `exact`, `qdeform`,
`sbtree`, `closedforms`, `dedekind` and `fit`, which alone declare the public
names; `sweeps` and `cli` are not re-exported.
"""
from . import closedforms, dedekind, exact, fit, qdeform, sbtree
from .exact import *
from .qdeform import *
from .sbtree import *
from .closedforms import *
from .dedekind import *
from .fit import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, *qdeform.__all__, *sbtree.__all__, *closedforms.__all__,
           *dedekind.__all__, *fit.__all__, "__version__"]
