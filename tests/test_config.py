import dataclasses
import json

from mahler.config import DEFAULTS, show_config


def test_show_config_is_json_with_all_budgets():
    payload = json.loads(show_config())
    assert payload == {"defaults": dataclasses.asdict(DEFAULTS)}
    assert payload["defaults"]["circle_nodes_start"] == DEFAULTS.circle_nodes_start
    assert payload["defaults"]["series_max_terms"] == DEFAULTS.series_max_terms
    assert json.loads(show_config(verify={"hyp": 1}))["verify"] == {"hyp": 1}
