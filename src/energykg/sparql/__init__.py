from .ast import SelectQuery, SolutionSequence
from .parser import QueryParseError, UnsupportedFeatureError, parse_query
from .evaluator import QueryTimeout, evaluate
from .results import to_results_json, to_results_tsv

__all__ = [
    "SelectQuery",
    "SolutionSequence",
    "QueryParseError",
    "UnsupportedFeatureError",
    "QueryTimeout",
    "parse_query",
    "evaluate",
    "to_results_json",
    "to_results_tsv",
]
