"""Output checks made apart from the program.

Every check here reads the run directory's files with the standard json
module and recomputes what it compares against with scipy.sparse.csgraph or
plain counting; nothing is imported from the program. A check raises
``CheckFailed`` with the first discrepancy it finds.
"""

from __future__ import annotations

import json
import math
import random
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

ASP_TOLERANCE = 1e-6  # the report rounds the average shortest path to 6 decimals
FILLER_MIN_DISTANCE = 3
BINOMIAL_Z = 6.0


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_jsonl(path: Path) -> list[dict]:
    """Records of a schema-headed JSONL artifact, header dropped."""
    with open(path, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    require(bool(lines) and "schema" in lines[0], f"{path.name}: no schema header")
    return lines[1:]


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


_SPACE = re.compile(r"\s+")


def normalize(text: str) -> str:
    return _SPACE.sub(" ", unicodedata.normalize("NFC", text).casefold()).strip()


# -- graphs ----------------------------------------------------------------------


@dataclass
class Graph:
    names: dict[str, str] = field(default_factory=dict)  # entity id -> canonical name
    aliases: dict[str, list[str]] = field(default_factory=dict)
    pruned: set[str] = field(default_factory=set)
    edges: list[tuple[str, str, str, str]] = field(default_factory=list)  # head, relation, tail, source node

    def ids(self) -> list[str]:
        return sorted(self.names)

    def present(self) -> list[str]:
        return [i for i in self.ids() if i not in self.pruned]

    def frequencies(self) -> dict[str, int]:
        """Distinct source tree nodes per entity, recounted from the edges."""
        nodes: dict[str, set[str]] = {i: set() for i in self.names}
        for head, _relation, tail, source in self.edges:
            nodes[head].add(source)
            nodes[tail].add(source)
        return {i: len(s) for i, s in nodes.items()}

    def kept_edges(self, present: set[str]) -> list[tuple[str, str]]:
        return [(h, t) for h, _r, t, _s in self.edges if h in present and t in present]


def read_graph(path: Path) -> Graph:
    graph = Graph()
    for record in read_jsonl(path):
        if record["kind"] == "entity":
            graph.names[record["entity_id"]] = record["canonical_name"]
            graph.aliases[record["entity_id"]] = list(record["aliases"])
            if record["is_pruned"]:
                graph.pruned.add(record["entity_id"])
        elif record["kind"] == "edge":
            graph.edges.append(
                (record["head"], record["relation"], record["tail"], record["source_node_id"])
            )
    return graph


def adjacency(nodes: list[str], edges: list[tuple[str, str]]) -> csr_matrix:
    index = {node: i for i, node in enumerate(nodes)}
    rows = [index[h] for h, _ in edges]
    cols = [index[t] for _, t in edges]
    n = len(nodes)
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def topology(nodes: list[str], edges: list[tuple[str, str]]) -> dict:
    """The topology report's figures for the undirected view over ``nodes``."""
    if not nodes:
        return {"node_count": 0}
    matrix = adjacency(nodes, edges)
    count, labels = connected_components(matrix, directed=False)
    sizes = np.bincount(labels)
    largest = int(sizes.max())
    asp = None
    if largest >= 2:
        members = np.flatnonzero(labels == int(np.argmax(sizes)))
        distances = shortest_path(matrix[members][:, members], directed=False, unweighted=True)
        asp = float(distances.sum()) / (largest * (largest - 1))
    return {
        "node_count": len(nodes),
        "edge_count": len(edges),
        "component_count": int(count),
        "largest_component_size": largest,
        "average_shortest_path": asp,
    }


def compare_topology(expected: dict, reported: dict, label: str) -> None:
    if expected["node_count"] == 0:
        require(reported.get("node_count") == 0, f"{label}: node_count {reported.get('node_count')} != 0")
        return
    for key in ("node_count", "edge_count", "component_count", "largest_component_size"):
        require(reported.get(key) == expected[key], f"{label}: {key} {reported.get(key)} != {expected[key]}")
    want, got = expected["average_shortest_path"], reported.get("average_shortest_path")
    require(
        (want is None and got is None)
        or (want is not None and got is not None and abs(want - got) <= ASP_TOLERANCE),
        f"{label}: average_shortest_path {got} != {want}",
    )


def read_stoplist(path: str | None) -> set[str]:
    """Normalized stop terms: one per line, '#' starts a comment."""
    if not path:
        return set()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {normalize(line.split("#", 1)[0]) for line in lines if line.split("#", 1)[0].strip()}


def present_at(graph: Graph, k: float | None, stop_terms: set[str]) -> set[str]:
    """Entities kept at threshold k: recounted frequency within k and no
    surface on the stoplist."""
    frequencies = graph.frequencies()
    return {
        i
        for i, f in frequencies.items()
        if (k is None or f <= k) and not {normalize(s) for s in [graph.names[i], *graph.aliases[i]]} & stop_terms
    }


def check_shatter(run_dir: Path, k: float | None, stop_terms: set[str]) -> None:
    """graph.jsonl keeps graph_raw's edges and prunes exactly the entities
    whose recounted frequency exceeds k or that are on the stoplist; both
    views of topology_report.json match csgraph on graph.jsonl."""
    raw = read_graph(run_dir / "graph_raw.jsonl")
    graph = read_graph(run_dir / "graph.jsonl")
    require(graph.names == raw.names, "graph.jsonl entities differ from graph_raw.jsonl")
    require(graph.edges == raw.edges, "graph.jsonl edges differ from graph_raw.jsonl")
    present = present_at(raw, k, stop_terms)
    require(graph.pruned == set(graph.names) - present, "pruned set differs from the recounted frequencies")
    report = read_json(run_dir / "topology_report.json")
    all_ids = graph.ids()
    compare_topology(topology(all_ids, graph.kept_edges(set(all_ids))), report["original"], "original")
    require(report["original"].get("pruned_count") == 0, "original view reports pruned entities")
    kept = graph.present()
    compare_topology(topology(kept, graph.kept_edges(set(kept))), report["shattered"], "shattered")
    if kept:
        require(report["shattered"].get("pruned_count") == len(graph.pruned), "shattered pruned_count is wrong")


def k_label(k: float | None):
    return "inf" if k is None else k


def check_sweep(run_dir: Path, ks: list[float | None], stop_terms: set[str]) -> None:
    """Every sweep row matches csgraph on graph_raw.jsonl at its k."""
    raw = read_graph(run_dir / "graph_raw.jsonl")
    rows = read_json(run_dir / "topology_report.json").get("sweep")
    require(rows is not None and len(rows) == len(ks), f"sweep has {None if rows is None else len(rows)} rows, expected {len(ks)}")
    for row, k in zip(rows, ks):
        require(row["k"] == k_label(k), f"sweep row k {row['k']} != {k_label(k)}")
        present = present_at(raw, k, stop_terms)
        expected = topology(sorted(present), raw.kept_edges(present))
        compare_topology(expected, row, f"sweep k={k_label(k)}")
        require(row["pruned_count"] == len(raw.names) - len(present), f"sweep k={k_label(k)}: pruned_count")


def check_monotone(run_dir: Path, ks: list[float | None], stop_terms: set[str], seed: int, sources: int = 64) -> int:
    """Shortest paths never shorten under pruning: for sampled pairs present
    at both of two thresholds, the distance at the lower k is at least the
    distance at the higher k. Returns the number of pairs compared."""
    raw = read_graph(run_dir / "graph_raw.jsonl")
    ordered = sorted(ks, key=lambda k: math.inf if k is None else k)
    rng = random.Random(seed)
    nodes = raw.ids()
    index = {node: i for i, node in enumerate(nodes)}
    compared = 0
    for low, high in zip(ordered, ordered[1:]):
        kept_low, kept_high = present_at(raw, low, stop_terms), present_at(raw, high, stop_terms)
        require(kept_low <= kept_high, f"k={k_label(low)} keeps entities that k={k_label(high)} prunes")
        chosen = rng.sample(sorted(kept_low), min(sources, len(kept_low)))
        rows = [index[n] for n in chosen]
        columns = np.array(sorted(index[n] for n in kept_low), dtype=int)
        d_low = shortest_path(adjacency(nodes, raw.kept_edges(kept_low)), directed=False, unweighted=True, indices=rows)
        d_high = shortest_path(adjacency(nodes, raw.kept_edges(kept_high)), directed=False, unweighted=True, indices=rows)
        shortened = d_low[:, columns] < d_high[:, columns]
        require(not shortened.any(), f"a path shortened from k={k_label(high)} to k={k_label(low)}")
        compared += shortened.size
    return compared


def check_items(run_dir: Path) -> int:
    """Each item masks its bridge, answers the chain's target, offers the
    sibling target as its hard negative and places every filler at undirected
    distance >= 3 from the source in the shattered view. Returns the count."""
    graph = read_graph(run_dir / "graph.jsonl")
    items = read_jsonl(run_dir / "dataset.jsonl")
    chains = {f"{c['a']}>{c['e_bridge']}>{c['b']}": c for c in read_jsonl(run_dir / "chains.jsonl")}
    discards = read_jsonl(run_dir / "discards.jsonl")
    require(len(items) + len(discards) == len(chains), "items and discards do not add up to the chains")
    require(len(items) > 0, "no items")
    by_name = {name: i for i, name in graph.names.items()}
    require(len(by_name) == len(graph.names), "entity names are not unique")
    present = graph.present()
    kept = set(graph.kept_edges(set(present)))
    order = {node: i for i, node in enumerate(present)}
    sources = sorted({chains[item["chain_ref"]]["a"] for item in items if item["chain_ref"] in chains})
    distances = shortest_path(
        adjacency(present, sorted(kept)), directed=False, unweighted=True, indices=[order[s] for s in sources]
    )
    row = {s: i for i, s in enumerate(sources)}
    for item in items:
        qa = item["qa_id"]
        chain = chains.get(item["chain_ref"])
        require(chain is not None, f"{qa}: chain {item['chain_ref']} not in chains.jsonl")
        a, bridge, b, sib, b_prime = chain["a"], chain["e_bridge"], chain["b"], chain["e_sib"], chain["b_prime"]
        for head, tail in ((a, bridge), (bridge, b), (a, sib), (sib, b_prime)):
            require((head, tail) in kept, f"{qa}: edge {head}->{tail} is not in the shattered view")
        require(sib != bridge and b_prime not in (a, bridge, b), f"{qa}: sibling branch overlaps the chain")
        masked = item["masked_entity"]
        require(masked["canonical"] == graph.names[bridge], f"{qa}: masked entity is not the bridge")
        question = normalize(item["question"])
        for surface in [graph.names[bridge], *graph.aliases[bridge]]:
            require(normalize(surface) not in question, f"{qa}: question names the bridge {surface!r}")
        options = item["options"]
        require(len(set(options)) == len(options), f"{qa}: repeated option")
        require(options[item["answer_index"]] == graph.names[b], f"{qa}: answer is not the chain's target")
        require(options[item["hard_negative_index"]] == graph.names[b_prime], f"{qa}: hard negative is not the sibling target")
        for position, option in enumerate(options):
            if position in (item["answer_index"], item["hard_negative_index"]):
                continue
            filler = by_name.get(option)
            require(filler is not None and filler in order, f"{qa}: filler {option!r} is not a present entity")
            require(filler not in (a, bridge, b, sib, b_prime), f"{qa}: filler {option!r} is a chain node")
            hops = distances[row[a], order[filler]]
            require(hops >= FILLER_MIN_DISTANCE, f"{qa}: filler {option!r} at distance {hops:.0f} from the source")
    return len(items)


def check_extraction(run_dir: Path, triples: set[tuple[str, str, str]], hubs: set[str]) -> None:
    """The extracted graph states exactly the generator's (head, relation,
    tail) names, merges no two names, and the pruned entities are the hubs."""
    raw = read_graph(run_dir / "graph_raw.jsonl")
    extracted = {(raw.names[h], r, raw.names[t]) for h, r, t, _ in raw.edges}
    require(extracted == triples, f"extracted triples differ from the corpus: {len(extracted ^ triples)} differ")
    merged = {raw.names[i]: a for i, a in raw.aliases.items() if a}
    require(not merged, f"distinct names merged: {sorted(merged.items())[:3]}")
    names = {n for h, _, t in triples for n in (h, t)}
    require(set(raw.names.values()) == names, "entity set differs from the corpus names")
    graph = read_graph(run_dir / "graph.jsonl")
    require({graph.names[i] for i in graph.pruned} == hubs, "pruned entities are not the planted hubs")


# -- evaluation ------------------------------------------------------------------


def _letter_index(response: str) -> int | None:
    stripped = response.strip()
    if len(stripped) == 1 and "A" <= stripped <= "Z":
        return ord(stripped) - ord("A")
    return None


def check_evaluation(run_dir: Path, models: list[str], file_ids: dict[str, str]) -> None:
    """One outcome per item for every model and mode; oracle, adversarial
    and uniform behave as defined; every report equals a recount from the
    outcome files and the dataset."""
    items = {r["qa_id"]: r for r in read_jsonl(run_dir / "dataset.jsonl")}
    adjudicated = [r["qa_id"] for r in read_jsonl(run_dir / "adjudications.jsonl")]
    require(sorted(adjudicated) == sorted(items), "adjudications do not cover every item once")
    stats = read_json(run_dir / "stats_report.json")
    require(stats["total_qa_pairs"] == len(items) and stats["excluded_items"] == 0, "stats do not cover every item")
    for model in models:
        outcomes = {}
        for mode in ("zero_shot", "rag"):
            records = read_jsonl(run_dir / f"outcomes_{file_ids[model]}_{mode}.jsonl")
            ids = [r["qa_id"] for r in records]
            require(len(ids) == len(set(ids)) and set(ids) == set(items), f"{model} {mode}: not one outcome per item")
            for r in records:
                item = items[r["qa_id"]]
                letter = _letter_index(r["raw_response"])
                require(letter is not None, f"{model} {mode} {r['qa_id']}: response is not one letter")
                require(r["parsed_choice"] == letter, f"{model} {mode} {r['qa_id']}: parsed choice {r['parsed_choice']} != {letter}")
                require(r["correct"] == (letter == item["answer_index"]), f"{model} {mode} {r['qa_id']}: correct flag")
            outcomes[mode] = {r["qa_id"]: r for r in records}
        _check_behaviour(model, items, outcomes)
        _check_report(read_json(run_dir / f"report_{file_ids[model]}.json"), model, items, outcomes)


def _check_behaviour(model: str, items: dict, outcomes: dict) -> None:
    zero, rag = outcomes["zero_shot"], outcomes["rag"]
    if model == "mock:oracle":
        require(all(o["correct"] for m in (zero, rag) for o in m.values()), "oracle accuracy is not 1.0")
    if model == "mock:adversarial":
        picks = [o["parsed_choice"] == items[q]["hard_negative_index"] for q, o in zero.items()]
        require(all(picks), "adversarial HNE is not 1.0")
    if model == "mock:uniform":
        wrong = [q for q, o in zero.items() if not o["correct"]]
        require(len(wrong) == len(zero), "uniform answered some item correctly")
        n_options = {len(items[q]["options"]) for q in wrong}
        require(len(n_options) == 1, "items differ in option count")
        p = 1 / (n_options.pop() - 1)
        hne = sum(zero[q]["parsed_choice"] == items[q]["hard_negative_index"] for q in wrong) / len(wrong)
        bound = BINOMIAL_Z * math.sqrt(p * (1 - p) / len(wrong))
        require(abs(hne - p) <= bound, f"uniform HNE {hne:.4f} outside {p:.4f} +- {bound:.4f}")
        require(all(rag[q]["correct"] for q in wrong), "uniform R3 is not 1.0")


def _check_report(report: dict, model: str, items: dict, outcomes: dict) -> None:
    zero, rag = outcomes["zero_shot"], outcomes["rag"]
    splits: dict[str, dict] = {}
    for qa_id, outcome in zero.items():
        item = items[qa_id]
        split = splits.setdefault(
            f"{item['language']}|{item['difficulty']}",
            {"total": 0, "correct": 0, "errors": 0, "unparseable": 0, "hard_negative_picks": 0, "recovered": 0},
        )
        split["total"] += 1
        if outcome["correct"]:
            split["correct"] += 1
        else:
            split["errors"] += 1
            split["hard_negative_picks"] += outcome["parsed_choice"] == item["hard_negative_index"]
            split["recovered"] += rag[qa_id]["correct"]
        split["unparseable"] += outcome["parsed_choice"] is None
    overall = {key: sum(s[key] for s in splits.values()) for key in next(iter(splits.values()))}
    expected = {
        "model_id": model,
        "total_zero_shot_errors": overall["errors"],
        "hne_picks": overall["hard_negative_picks"],
        "recovered_count": overall["recovered"],
        "unparseable_count": overall["unparseable"],
        "hne_rate": round(overall["hard_negative_picks"] / overall["errors"], 4) if overall["errors"] else None,
        "r3_rate": round(overall["recovered"] / overall["errors"], 4) if overall["errors"] else None,
    }
    for key, value in expected.items():
        require(report.get(key) == value, f"report {model}: {key} {report.get(key)} != {value}")
    require(set(report["splits"]) == set(splits), f"report {model}: splits differ")
    for key, split in splits.items():
        for field_name, value in split.items():
            got = report["splits"][key][field_name]
            require(got == value, f"report {model} split {key}: {field_name} {got} != {value}")
