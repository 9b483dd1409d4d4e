#ifndef OVERGEN_COMMON_JSON_FIELDS_H
#define OVERGEN_COMMON_JSON_FIELDS_H

/**
 * @file
 * Non-fatal field extraction for decoders of bytes from outside the
 * process (library JSONL, serve wire records). Each getter checks
 * presence and type, writes the value on success, and otherwise
 * returns false with a named error in @p error (when non-null) —
 * never the fatal Json::at/as* path.
 */

#include <cmath>
#include <cstdint>
#include <string>

#include "common/hex.h"
#include "common/json.h"

namespace overgen {

inline bool
fieldError(std::string *error, const std::string &what, const char *key)
{
    if (error != nullptr)
        *error = what + " field '" + key + "'";
    return false;
}

inline bool
getString(const Json &obj, const char *key, std::string &out,
          std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isString())
        return fieldError(error, "missing/ill-typed string", key);
    out = obj.at(key).asString();
    return true;
}

inline bool
getNumber(const Json &obj, const char *key, double &out,
          std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isNumber())
        return fieldError(error, "missing/ill-typed number", key);
    out = obj.at(key).asNumber();
    return true;
}

inline bool
getBool(const Json &obj, const char *key, bool &out,
        std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isBool())
        return fieldError(error, "missing/ill-typed bool", key);
    out = obj.at(key).asBool();
    return true;
}

/** @return whether @p value is an integral number in [lo, hi] (the
 * check precedes any cast, so no out-of-range double is converted). */
inline bool
integerIn(const Json &value, int64_t lo, int64_t hi, int64_t &out)
{
    if (!value.isNumber())
        return false;
    double v = value.asNumber();
    if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
        std::floor(v) != v)
        return false;
    out = static_cast<int64_t>(v);
    return true;
}

/** An integral number field within [lo, hi]. */
inline bool
getInteger(const Json &obj, const char *key, int64_t lo, int64_t hi,
           int64_t &out, std::string *error)
{
    if (!obj.contains(key) || !integerIn(obj.at(key), lo, hi, out))
        return fieldError(error, "missing/ill-typed/out-of-range integer",
                          key);
    return true;
}

/** An array field; @p out points into @p obj. */
inline bool
getArray(const Json &obj, const char *key, const Json::Array *&out,
         std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isArray())
        return fieldError(error, "missing/ill-typed array", key);
    out = &obj.at(key).asArray();
    return true;
}

/** A hexU64() string field. */
inline bool
getHex64(const Json &obj, const char *key, uint64_t &out,
         std::string *error)
{
    std::string text;
    if (!getString(obj, key, text, error))
        return false;
    if (!tryParseHexU64(text, out))
        return fieldError(error, "bad hex64 value in", key);
    return true;
}

} // namespace overgen

#endif // OVERGEN_COMMON_JSON_FIELDS_H
