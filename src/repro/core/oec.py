"""Optimal Evidence Distiller (OEC) — the Grow-and-Clip strategy (Alg. 1).

Sequential Grow Searching (SGS) repeatedly selects the forest tree whose
root has the maximum attention weight to its parent and merges it with
that parent and its sibling subtrees, until the forest collapses to a
single unclipped evidence tree.  Sequential Clip Searching (SCS) then
removes, ``M`` times, the clue-free subtree whose deletion maximizes the
hybrid score (ties broken by minimum parent-edge attention weight).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.efc import EvidenceForest
from repro.core.scoring import CandidateScoringEngine
from repro.metrics.hybrid import EvidenceScores, HybridScorer
from repro.parsing.tree import DependencyTree
from repro.text.tokenizer import detokenize

__all__ = ["GrowTrace", "ClipTrace", "OptimalEvidenceDistiller"]


@dataclass(frozen=True)
class GrowTrace:
    """One SGS step: which tree grew, and what it absorbed."""

    selected_root: int
    parent: int
    weight: float
    absorbed_roots: tuple[int, ...]
    forest_size_after: int


@dataclass(frozen=True)
class ClipTrace:
    """One SCS step: which subtree was pruned and the score it achieved."""

    clipped_root: int
    removed_nodes: frozenset[int]
    hybrid_after: float
    edge_weight: float


class OptimalEvidenceDistiller:
    """Runs Grow-and-Clip over an evidence forest.

    Args:
        scorer: hybrid scorer used by the clip step.
        clip_times: M, the number of clip iterations.
        max_clip_candidates: evaluation budget per clip iteration; the
            candidates with the smallest parent-edge weights are evaluated
            first (weak attachments are the likeliest noise), which keeps
            the QA-model calls per example bounded.
        engine: optional incremental scoring engine.  When present, each
            clip search scores its candidates through one per-call
            session (incremental metrics, batched QA predictions); when
            ``None``, every candidate is rendered and scored directly.
            Outputs are bit-identical either way.
    """

    def __init__(
        self,
        scorer: HybridScorer,
        clip_times: int = 2,
        max_clip_candidates: int = 24,
        engine: CandidateScoringEngine | None = None,
    ) -> None:
        if clip_times < 0:
            raise ValueError("clip_times must be non-negative")
        self.scorer = scorer
        self.clip_times = clip_times
        self.max_clip_candidates = max_clip_candidates
        self.engine = engine

    # ------------------------------------------------------------- helpers
    @staticmethod
    def render(tree: DependencyTree, nodes: set[int] | frozenset[int]) -> str:
        """Tokens of ``nodes`` ranked by index, joined into readable text."""
        return detokenize(tree.text_of(nodes))

    # ---------------------------------------------------------------- grow
    def grow(
        self, forest: EvidenceForest
    ) -> tuple[set[int], int, list[GrowTrace]]:
        """SGS: returns (evidence node set, evidence root, trace).

        Terminates because every step strictly moves the selected root
        toward the tree root; once a component's root is the tree root its
        subtree spans everything and the forest collapses.
        """
        tree = forest.tree
        components: list[set[int]] = [set(c) for c in forest.components]
        roots: list[int] = list(forest.roots)
        trace: list[GrowTrace] = []
        if len(components) == 1:
            # A single forest tree is already the unclipped evidence tree,
            # but it may be a sparse, unreadable node set.  Apply the same
            # closure a grow step applies — take the full subtree under its
            # root ("merge with ... sibling subtrees") — so the evidence is
            # contiguous and the clip step has material to prune.
            return set(tree.subtree(roots[0])), roots[0], trace
        while len(components) > 1:
            # Select the component whose root has the max parent-edge weight.
            best_idx = max(
                range(len(components)),
                key=lambda i: (tree.weight(roots[i]), -roots[i]),
            )
            root = roots[best_idx]
            parent = tree.parent(root)
            if parent == -1:
                # The selected component is already rooted at the tree root;
                # everything else lies in its subtree — absorb it all.
                new_root = root
            else:
                new_root = parent
            members = tree.subtree(new_root)
            absorbed: list[int] = []
            survivors_c: list[set[int]] = []
            survivors_r: list[int] = []
            merged = set(members) if parent != -1 else set(components[best_idx]) | members
            for idx, (comp, comp_root) in enumerate(zip(components, roots)):
                if comp_root in members or idx == best_idx:
                    merged |= comp
                    if idx != best_idx:
                        absorbed.append(comp_root)
                else:
                    survivors_c.append(comp)
                    survivors_r.append(comp_root)
            survivors_c.append(merged)
            survivors_r.append(new_root)
            components, roots = survivors_c, survivors_r
            trace.append(
                GrowTrace(
                    selected_root=root,
                    parent=parent,
                    weight=tree.weight(root),
                    absorbed_roots=tuple(absorbed),
                    forest_size_after=len(components),
                )
            )
        return components[0], roots[0], trace

    # ---------------------------------------------------------------- clip
    def _clip_candidates(
        self,
        tree: DependencyTree,
        evidence: set[int],
        evidence_root: int,
        protected: frozenset[int],
    ) -> list[tuple[int, frozenset[int]]]:
        """Subtrees of the evidence tree that contain no protected nodes."""
        candidates: list[tuple[int, frozenset[int]]] = []
        for node in evidence:
            if node == evidence_root:
                continue
            if tree.parent(node) not in evidence:
                continue  # fragment boundary (w/o-Grow ablation)
            sub = frozenset(tree.subtree(node) & evidence)
            if sub & protected:
                continue
            candidates.append((node, sub))
        return candidates

    def clip(
        self,
        tree: DependencyTree,
        evidence: set[int],
        evidence_root: int,
        protected: frozenset[int],
        question: str,
        answer: str,
    ) -> tuple[set[int], list[ClipTrace]]:
        """SCS: iteratively prune the best-to-remove subtree, M times.

        The current evidence's score is computed once (lazily, the first
        time a clip decision needs it) and carried forward as the chosen
        candidate's score thereafter — it is by construction the previous
        iteration's ``hybrid_after``, so re-scoring it from scratch every
        iteration was pure redundancy.
        """
        evidence = set(evidence)
        trace: list[ClipTrace] = []
        session = self.engine.session(tree, question, answer) if self.engine else None
        current_scores = None
        for _ in range(self.clip_times):
            candidates = self._clip_candidates(
                tree, evidence, evidence_root, protected
            )
            if not candidates:
                break
            # Maximal candidates only: clipping a node implies clipping its
            # descendants, so nested candidates are redundant to evaluate.
            roots_set = {node for node, _sub in candidates}
            maximal = [
                (node, sub)
                for node, sub in candidates
                if tree.parent(node) not in roots_set
                or tree.parent(node) in protected
            ]
            maximal = maximal or candidates
            # Evaluation budget: weakest attachments first.
            maximal.sort(key=lambda item: tree.weight(item[0]))
            maximal = maximal[: self.max_clip_candidates]

            if session is not None:
                # One engine call per iteration: the candidates share one
                # batched QA prediction.
                all_scores = session.score_many(
                    [frozenset(evidence - sub) for _node, sub in maximal]
                )
            else:
                all_scores = [
                    self.scorer.score(
                        question, answer, self.render(tree, evidence - sub)
                    )
                    for _node, sub in maximal
                ]
            best: tuple[float, float, int, frozenset[int], EvidenceScores] | None = None
            for (node, sub), scores in zip(maximal, all_scores):
                key = (scores.hybrid, -tree.weight(node))
                if best is None or key > (best[0], best[1]):
                    best = (scores.hybrid, -tree.weight(node), node, sub, scores)
            if best is None or best[0] == float("-inf"):
                break
            hybrid_after, neg_weight, node, sub, best_scores = best
            if current_scores is None:
                current_scores = (
                    session.score(frozenset(evidence))
                    if session is not None
                    else self.scorer.score(
                        question, answer, self.render(tree, evidence)
                    )
                )
            if hybrid_after < current_scores.hybrid:
                # No clip improves the evidence: stop early (the paper's M
                # is an upper bound tuned by experiments).
                break
            evidence -= sub
            current_scores = best_scores
            trace.append(
                ClipTrace(
                    clipped_root=node,
                    removed_nodes=sub,
                    hybrid_after=hybrid_after,
                    edge_weight=-neg_weight,
                )
            )
        return evidence, trace

    # ------------------------------------------------------------- distill
    def distill(
        self,
        forest: EvidenceForest,
        question: str,
        answer: str,
        use_grow: bool = True,
        use_clip: bool = True,
    ) -> tuple[str, set[int], list[GrowTrace], list[ClipTrace]]:
        """Full OEC: grow then clip; returns (text, nodes, traces).

        ``use_grow`` / ``use_clip`` implement the Table VIII ablations.
        """
        tree = forest.tree
        if len(forest) == 0:
            return "", set(), [], []
        if use_grow:
            evidence, evidence_root, grow_trace = self.grow(forest)
        else:
            evidence = set().union(*forest.components)
            evidence_root = forest.roots[0]
            grow_trace = []
        if use_clip:
            evidence, clip_trace = self.clip(
                tree,
                evidence,
                evidence_root,
                forest.protected,
                question,
                answer,
            )
        else:
            clip_trace = []
        return self.render(tree, evidence), evidence, grow_trace, clip_trace
