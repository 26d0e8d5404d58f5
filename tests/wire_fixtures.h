/**
 * @file
 * Document surgery for the /v1 wire-schema characterization tests
 * (ServeJson, SweepCodec): enumerate every member of an encoded
 * document, then rebuild the document with one member removed,
 * retyped, or an unknown key injected beside it.  The tests drive
 * the decoders with these documents to pin which inputs each codec
 * accepts and how its errors name the offending field.
 */
#ifndef VTRAIN_TESTS_WIRE_FIXTURES_H
#define VTRAIN_TESTS_WIRE_FIXTURES_H

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "serve/json.h"
#include "serve/wire.h"

namespace vtrain {
namespace wire_fixtures {

/** Keys (array indices as decimal strings) from the root to a node. */
using Path = std::vector<std::string>;

/** One object member: the path of its object plus its own key. */
struct Member {
    Path object;
    std::string key;
};

/** @return "a/b/0" for diagnostics ("" for the root). */
inline std::string
join(const Path &path)
{
    std::string out;
    for (const std::string &part : path) {
        if (!out.empty())
            out += '/';
        out += part;
    }
    return out;
}

/** Appends every member of `node`, recursing into objects and into
 *  the first element of arrays. */
inline void
collectMembers(const json::Value &node, const Path &path,
               std::vector<Member> *out)
{
    if (node.isArray()) {
        if (!node.items().empty()) {
            Path next = path;
            next.push_back("0");
            collectMembers(node.items()[0], next, out);
        }
        return;
    }
    if (!node.isObject())
        return;
    for (const auto &[key, value] : node.members()) {
        out->push_back({path, key});
        Path next = path;
        next.push_back(key);
        collectMembers(value, next, out);
    }
}

inline std::vector<Member>
members(const json::Value &doc)
{
    std::vector<Member> out;
    collectMembers(doc, {}, &out);
    return out;
}

/** Appends the path of every object in `node`, itself included,
 *  recursing into the first element of arrays. */
inline void
collectObjects(const json::Value &node, const Path &path,
               std::vector<Path> *out)
{
    Path next = path;
    next.emplace_back();
    if (node.isArray() && !node.items().empty()) {
        next.back() = "0";
        collectObjects(node.items()[0], next, out);
    } else if (node.isObject()) {
        out->push_back(path);
        for (const auto &[key, value] : node.members()) {
            next.back() = key;
            collectObjects(value, next, out);
        }
    }
}

inline std::vector<Path>
objectPaths(const json::Value &doc)
{
    std::vector<Path> out;
    collectObjects(doc, {}, &out);
    return out;
}

/** Rewrites the object at `path` through `edit`, copying the rest. */
inline json::Value
editObject(const json::Value &node, const Path &path, size_t depth,
           const std::function<json::Value(const json::Value &)> &edit)
{
    if (depth == path.size())
        return edit(node);
    if (node.isArray()) {
        json::Value out = json::Value::array();
        const size_t index = std::stoul(path[depth]);
        for (size_t i = 0; i < node.items().size(); ++i)
            out.push(i == index
                         ? editObject(node.items()[i], path, depth + 1,
                                      edit)
                         : node.items()[i]);
        return out;
    }
    json::Value out = json::Value::object();
    for (const auto &[key, value] : node.members())
        out.set(key, key == path[depth]
                         ? editObject(value, path, depth + 1, edit)
                         : value);
    return out;
}

/** `doc` without `member`. */
inline json::Value
without(const json::Value &doc, const Member &member)
{
    return editObject(doc, member.object, 0,
                      [&](const json::Value &object) {
                          json::Value out = json::Value::object();
                          for (const auto &[key, value] :
                               object.members())
                              if (key != member.key)
                                  out.set(key, value);
                          return out;
                      });
}

/** `doc` with the member's value replaced by one of another type. */
inline json::Value
retyped(const json::Value &doc, const Member &member)
{
    return editObject(doc, member.object, 0,
                      [&](const json::Value &object) {
                          json::Value out = json::Value::object();
                          for (const auto &[key, value] :
                               object.members()) {
                              if (key != member.key)
                                  out.set(key, value);
                              else if (value.isString())
                                  out.set(key, json::Value(true));
                              else
                                  out.set(key, json::Value("x"));
                          }
                          return out;
                      });
}

/** `doc` with `key` added to the object at `path`. */
inline json::Value
withExtraKey(const json::Value &doc, const Path &path,
             const std::string &key)
{
    return editObject(doc, path, 0, [&](const json::Value &object) {
        json::Value out = object;
        out.set(key, json::Value(int64_t{1}));
        return out;
    });
}

/** Decodes `doc` as a T; on failure *error says why. */
template <typename T>
bool
decodesAs(const json::Value &doc, std::string *error)
{
    T out;
    return wire::v1::decode(doc, &out, error);
}

using Decoder = bool (*)(const json::Value &doc, std::string *error);

/**
 * Expects `doc` to decode, and every copy of it with one member
 * removed (except the `optional` key) or retyped to fail with an
 * error that quotes that member's key.
 */
inline void
expectEveryFieldNamed(const std::string &name, const json::Value &doc,
                      Decoder decode, const std::string &optional = "")
{
    std::string error;
    ASSERT_TRUE(decode(doc, &error)) << name << ": " << error;
    for (const Member &member : members(doc)) {
        const std::string where =
            name + " " + join(member.object) + "/" + member.key;
        const std::string quoted = "'" + member.key + "'";
        if (member.key != optional) {
            error.clear();
            EXPECT_FALSE(decode(without(doc, member), &error))
                << "removed " << where;
            EXPECT_NE(error.find(quoted), std::string::npos)
                << "removed " << where << ": " << error;
        }
        error.clear();
        EXPECT_FALSE(decode(retyped(doc, member), &error))
            << "retyped " << where;
        EXPECT_NE(error.find(quoted), std::string::npos)
            << "retyped " << where << ": " << error;
    }
}

} // namespace wire_fixtures
} // namespace vtrain

#endif // VTRAIN_TESTS_WIRE_FIXTURES_H
