"""CNF containers and Tseitin encoding of AIGs."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.aig.aig import Aig, lit_compl, lit_node


class Cnf:
    """A CNF formula plus the variable maps produced by encoding."""

    def __init__(self):
        self.clauses: List[List[int]] = []
        self.num_vars = 0

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add(self, *literals: int) -> None:
        self.clauses.append(list(literals))

    def __len__(self) -> int:
        return len(self.clauses)


def tseitin_aig(aig: Aig, cnf: Optional[Cnf] = None,
                pi_vars: Optional[Sequence[int]] = None
                ) -> Tuple[Cnf, List[int], List[int]]:
    """Encode an AIG; returns (cnf, pi variables, po literals).

    PO literals are signed CNF literals (negative = complemented).  Passing
    ``pi_vars`` shares input variables with an existing encoding — this is
    how the equivalence miter ties two circuits to the same inputs.
    """
    if cnf is None:
        cnf = Cnf()
    if pi_vars is None:
        pi_vars = [cnf.new_var() for _ in range(aig.num_pis)]
    elif len(pi_vars) != aig.num_pis:
        raise ValueError("pi_vars length mismatch")
    node_var: Dict[int, int] = {}
    const_var = None

    def var_of_node(node: int) -> int:
        nonlocal const_var
        if node == 0:
            if const_var is None:
                const_var = cnf.new_var()
                cnf.add(-const_var)  # constant false
            return const_var
        if aig.is_pi(node):
            return pi_vars[node - 1]
        return node_var[node]

    for n in range(aig.num_pis + 1, aig.num_nodes):
        f0, f1 = aig.fanins(n)
        a = var_of_node(lit_node(f0)) * (-1 if lit_compl(f0) else 1)
        b = var_of_node(lit_node(f1)) * (-1 if lit_compl(f1) else 1)
        v = cnf.new_var()
        node_var[n] = v
        # v <-> a & b
        cnf.add(-v, a)
        cnf.add(-v, b)
        cnf.add(v, -a, -b)
    po_literals = []
    for po in aig.po_lits:
        v = var_of_node(lit_node(po))
        po_literals.append(-v if lit_compl(po) else v)
    return cnf, list(pi_vars), po_literals
