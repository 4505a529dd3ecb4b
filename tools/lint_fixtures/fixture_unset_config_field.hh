// det-lint-path: src/slam/fixture_unset_config_field.hh
// det-lint-expect: unset-config-field
//
// A config field that nothing assigns has one value in use: it should
// be a named constant. `setSomewhere` is assigned below, `nested` is a
// config struct whose own fields are checked, `allowedKnob` carries an
// explicit allow marker, and the method and static constant are not
// data members. Only `neverSet` may be flagged.
#include <cstdint>

struct InnerConfig
{
    int depth = 2;
};

struct FixtureConfig
{
    std::uint32_t setSomewhere = 1;
    float neverSet = 0.5f;
    InnerConfig nested;
    /** Read by an external harness that must not change.
     *  det-lint: allow(unset-config-field) */
    int allowedKnob = 3;
    static constexpr int kLimit = 8;

    int
    doubled() const
    {
        int twice = setSomewhere * 2;
        return twice;
    }
};

inline FixtureConfig
tunedConfig()
{
    FixtureConfig cfg;
    cfg.setSomewhere = 4;
    cfg.nested.depth = 3;
    return cfg;
}
