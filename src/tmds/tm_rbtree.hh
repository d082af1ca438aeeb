/**
 * @file
 * Transactional red-black tree (STAMP lib/rbtree equivalent).
 *
 * CLRS-style with parent pointers and null leaves (no shared sentinel
 * node — a sentinel's parent field would become an artificial conflict
 * hotspot under TM, which STAMP's tree also avoids). Used by the
 * *original* intruder/vacation variants and by the modified intruder's
 * ordered sets.
 */

#ifndef HTMSIM_TMDS_TM_RBTREE_HH
#define HTMSIM_TMDS_TM_RBTREE_HH

#include <cstdint>

#include "sim/region.hh"

namespace htmsim::tmds
{

/** Map from uint64 keys to uint64 values with ordered iteration. */
class TmRbTree
{
  public:
    enum Color : std::uint64_t { red = 0, black = 1 };

    struct Node
    {
        std::uint64_t key;
        std::uint64_t value;
        Node* left;
        Node* right;
        Node* parent;
        std::uint64_t color;
        /** Pad to 64 bytes (see TmList::Node). */
        char pad[16];
    };

    TmRbTree() = default;
    /** Capacity hints are accepted (and ignored) so the tree is a
     *  drop-in for TmHashTable in templated code. */
    explicit TmRbTree(std::size_t) {}
    TmRbTree(const TmRbTree&) = delete;
    TmRbTree& operator=(const TmRbTree&) = delete;
    ~TmRbTree() { freeSubtree(root_); }

    /** Insert if absent; returns false if the key already exists. */
    template <typename Ctx>
    bool
    insert(Ctx& c, std::uint64_t key, std::uint64_t value)
    {
        Node* parent = nullptr;
        Node* node = c.load(&root_);
        while (node != nullptr) {
            const std::uint64_t node_key = c.load(&node->key);
            if (key == node_key)
                return false;
            parent = node;
            node = key < node_key ? c.load(&node->left)
                                  : c.load(&node->right);
        }

        Node* fresh = c.template create<Node>();
        c.store(&fresh->key, key);
        c.store(&fresh->value, value);
        c.store(&fresh->left, static_cast<Node*>(nullptr));
        c.store(&fresh->right, static_cast<Node*>(nullptr));
        c.store(&fresh->parent, parent);
        c.store(&fresh->color, std::uint64_t(red));

        if (parent == nullptr) {
            c.store(&root_, fresh);
        } else if (key < c.load(&parent->key)) {
            c.store(&parent->left, fresh);
        } else {
            c.store(&parent->right, fresh);
        }
        insertFixup(c, fresh);
        c.store(&size_, c.load(&size_) + 1);
        return true;
    }

    /** Look up a key; stores the value through @p out when found. */
    template <typename Ctx>
    bool
    find(Ctx& c, std::uint64_t key, std::uint64_t* out = nullptr)
    {
        Node* node = findNode(c, key);
        if (node == nullptr)
            return false;
        if (out != nullptr)
            *out = c.load(&node->value);
        return true;
    }

    /** Update an existing key's value; returns false if absent. */
    template <typename Ctx>
    bool
    update(Ctx& c, std::uint64_t key, std::uint64_t value)
    {
        Node* node = findNode(c, key);
        if (node == nullptr)
            return false;
        c.store(&node->value, value);
        return true;
    }

    /** Remove a key; returns false if absent. */
    template <typename Ctx>
    bool
    remove(Ctx& c, std::uint64_t key)
    {
        Node* node = findNode(c, key);
        if (node == nullptr)
            return false;
        removeNode(c, node);
        c.store(&size_, c.load(&size_) - 1);
        return true;
    }

    template <typename Ctx>
    std::uint64_t
    size(Ctx& c)
    {
        return c.load(&size_);
    }

    template <typename Ctx>
    bool
    empty(Ctx& c)
    {
        return c.load(&root_) == nullptr;
    }

    /** Smallest key >= @p key; returns false if none. */
    template <typename Ctx>
    bool
    findCeiling(Ctx& c, std::uint64_t key, std::uint64_t* key_out,
                std::uint64_t* value_out = nullptr)
    {
        Node* node = c.load(&root_);
        Node* best = nullptr;
        while (node != nullptr) {
            const std::uint64_t node_key = c.load(&node->key);
            if (node_key == key) {
                best = node;
                break;
            }
            if (node_key > key) {
                best = node;
                node = c.load(&node->left);
            } else {
                node = c.load(&node->right);
            }
        }
        if (best == nullptr)
            return false;
        if (key_out != nullptr)
            *key_out = c.load(&best->key);
        if (value_out != nullptr)
            *value_out = c.load(&best->value);
        return true;
    }

    /** In-order visit: f(key, value). */
    template <typename Ctx, typename F>
    void
    forEach(Ctx& c, F&& f)
    {
        visit(c, c.load(&root_), f);
    }

    /**
     * Bounded ascending range scan: visit f(key, value) for up to
     * @p limit elements with key >= @p from, in key order. Returns the
     * number visited. The lower-bound descent plus the parent-pointer
     * successor walk keeps the transactional footprint proportional to
     * tree depth + limit — the small-scan shape OLTP range queries
     * want.
     */
    template <typename Ctx, typename F>
    unsigned
    rangeEach(Ctx& c, std::uint64_t from, unsigned limit, F&& f)
    {
        Node* node = c.load(&root_);
        Node* next = nullptr;
        while (node != nullptr) {
            if (c.load(&node->key) >= from) {
                next = node;
                node = c.load(&node->left);
            } else {
                node = c.load(&node->right);
            }
        }
        unsigned visited = 0;
        while (next != nullptr && visited < limit) {
            f(c.load(&next->key), c.load(&next->value));
            ++visited;
            next = successor(c, next);
        }
        return visited;
    }

    /**
     * Validate red-black invariants (host-side). Returns the black
     * height, or -1 if any invariant is violated. For tests.
     */
    int
    checkInvariants() const
    {
        if (root_ != nullptr && root_->color != black)
            return -1;
        return blackHeight(root_, nullptr, 0,
                           ~std::uint64_t(0));
    }

  private:
    template <typename Ctx>
    Node*
    findNode(Ctx& c, std::uint64_t key)
    {
        Node* node = c.load(&root_);
        while (node != nullptr) {
            const std::uint64_t node_key = c.load(&node->key);
            if (key == node_key)
                return node;
            node = key < node_key ? c.load(&node->left)
                                  : c.load(&node->right);
        }
        return nullptr;
    }

    /** In-order successor via parent pointers (no stack). */
    template <typename Ctx>
    Node*
    successor(Ctx& c, Node* node)
    {
        Node* right = c.load(&node->right);
        if (right != nullptr) {
            Node* left = c.load(&right->left);
            while (left != nullptr) {
                right = left;
                left = c.load(&right->left);
            }
            return right;
        }
        Node* parent = c.load(&node->parent);
        while (parent != nullptr && c.load(&parent->right) == node) {
            node = parent;
            parent = c.load(&parent->parent);
        }
        return parent;
    }

    template <typename Ctx>
    bool
    isRed(Ctx& c, Node* node)
    {
        return node != nullptr && c.load(&node->color) == red;
    }

    template <typename Ctx>
    void
    rotateLeft(Ctx& c, Node* x)
    {
        Node* y = c.load(&x->right);
        Node* y_left = c.load(&y->left);
        c.store(&x->right, y_left);
        if (y_left != nullptr)
            c.store(&y_left->parent, x);
        Node* x_parent = c.load(&x->parent);
        c.store(&y->parent, x_parent);
        if (x_parent == nullptr)
            c.store(&root_, y);
        else if (x == c.load(&x_parent->left))
            c.store(&x_parent->left, y);
        else
            c.store(&x_parent->right, y);
        c.store(&y->left, x);
        c.store(&x->parent, y);
    }

    template <typename Ctx>
    void
    rotateRight(Ctx& c, Node* x)
    {
        Node* y = c.load(&x->left);
        Node* y_right = c.load(&y->right);
        c.store(&x->left, y_right);
        if (y_right != nullptr)
            c.store(&y_right->parent, x);
        Node* x_parent = c.load(&x->parent);
        c.store(&y->parent, x_parent);
        if (x_parent == nullptr)
            c.store(&root_, y);
        else if (x == c.load(&x_parent->right))
            c.store(&x_parent->right, y);
        else
            c.store(&x_parent->left, y);
        c.store(&y->right, x);
        c.store(&x->parent, y);
    }

    template <typename Ctx>
    void
    insertFixup(Ctx& c, Node* z)
    {
        while (isRed(c, c.load(&z->parent))) {
            Node* parent = c.load(&z->parent);
            Node* grandparent = c.load(&parent->parent);
            if (parent == c.load(&grandparent->left)) {
                Node* uncle = c.load(&grandparent->right);
                if (isRed(c, uncle)) {
                    c.store(&parent->color, std::uint64_t(black));
                    c.store(&uncle->color, std::uint64_t(black));
                    c.store(&grandparent->color, std::uint64_t(red));
                    z = grandparent;
                } else {
                    if (z == c.load(&parent->right)) {
                        z = parent;
                        rotateLeft(c, z);
                        parent = c.load(&z->parent);
                        grandparent = c.load(&parent->parent);
                    }
                    c.store(&parent->color, std::uint64_t(black));
                    c.store(&grandparent->color, std::uint64_t(red));
                    rotateRight(c, grandparent);
                }
            } else {
                Node* uncle = c.load(&grandparent->left);
                if (isRed(c, uncle)) {
                    c.store(&parent->color, std::uint64_t(black));
                    c.store(&uncle->color, std::uint64_t(black));
                    c.store(&grandparent->color, std::uint64_t(red));
                    z = grandparent;
                } else {
                    if (z == c.load(&parent->left)) {
                        z = parent;
                        rotateRight(c, z);
                        parent = c.load(&z->parent);
                        grandparent = c.load(&parent->parent);
                    }
                    c.store(&parent->color, std::uint64_t(black));
                    c.store(&grandparent->color, std::uint64_t(red));
                    rotateLeft(c, grandparent);
                }
            }
        }
        Node* root = c.load(&root_);
        c.store(&root->color, std::uint64_t(black));
    }

    /** Replace the subtree rooted at u with v (v may be null). */
    template <typename Ctx>
    void
    transplant(Ctx& c, Node* u, Node* v)
    {
        Node* u_parent = c.load(&u->parent);
        if (u_parent == nullptr)
            c.store(&root_, v);
        else if (u == c.load(&u_parent->left))
            c.store(&u_parent->left, v);
        else
            c.store(&u_parent->right, v);
        if (v != nullptr)
            c.store(&v->parent, u_parent);
    }

    template <typename Ctx>
    Node*
    minimum(Ctx& c, Node* node)
    {
        Node* left = c.load(&node->left);
        while (left != nullptr) {
            node = left;
            left = c.load(&node->left);
        }
        return node;
    }

    template <typename Ctx>
    void
    removeNode(Ctx& c, Node* z)
    {
        Node* x = nullptr;
        Node* x_parent = nullptr;
        Node* y = z;
        std::uint64_t y_color = c.load(&y->color);

        if (c.load(&z->left) == nullptr) {
            x = c.load(&z->right);
            x_parent = c.load(&z->parent);
            transplant(c, z, x);
        } else if (c.load(&z->right) == nullptr) {
            x = c.load(&z->left);
            x_parent = c.load(&z->parent);
            transplant(c, z, x);
        } else {
            y = minimum(c, c.load(&z->right));
            y_color = c.load(&y->color);
            x = c.load(&y->right);
            if (c.load(&y->parent) == z) {
                x_parent = y;
            } else {
                x_parent = c.load(&y->parent);
                transplant(c, y, x);
                Node* z_right = c.load(&z->right);
                c.store(&y->right, z_right);
                c.store(&z_right->parent, y);
            }
            transplant(c, z, y);
            Node* z_left = c.load(&z->left);
            c.store(&y->left, z_left);
            c.store(&z_left->parent, y);
            c.store(&y->color, c.load(&z->color));
        }
        if (y_color == black)
            removeFixup(c, x, x_parent);
        c.template destroy<Node>(z);
    }

    template <typename Ctx>
    void
    removeFixup(Ctx& c, Node* x, Node* x_parent)
    {
        while (x != c.load(&root_) && !isRed(c, x)) {
            if (x_parent == nullptr)
                break;
            if (x == c.load(&x_parent->left)) {
                Node* w = c.load(&x_parent->right);
                if (isRed(c, w)) {
                    c.store(&w->color, std::uint64_t(black));
                    c.store(&x_parent->color, std::uint64_t(red));
                    rotateLeft(c, x_parent);
                    w = c.load(&x_parent->right);
                }
                if (!isRed(c, c.load(&w->left)) &&
                    !isRed(c, c.load(&w->right))) {
                    c.store(&w->color, std::uint64_t(red));
                    x = x_parent;
                    x_parent = c.load(&x->parent);
                } else {
                    if (!isRed(c, c.load(&w->right))) {
                        Node* w_left = c.load(&w->left);
                        if (w_left != nullptr) {
                            c.store(&w_left->color,
                                    std::uint64_t(black));
                        }
                        c.store(&w->color, std::uint64_t(red));
                        rotateRight(c, w);
                        w = c.load(&x_parent->right);
                    }
                    c.store(&w->color, c.load(&x_parent->color));
                    c.store(&x_parent->color, std::uint64_t(black));
                    Node* w_right = c.load(&w->right);
                    if (w_right != nullptr)
                        c.store(&w_right->color, std::uint64_t(black));
                    rotateLeft(c, x_parent);
                    x = c.load(&root_);
                    x_parent = nullptr;
                }
            } else {
                Node* w = c.load(&x_parent->left);
                if (isRed(c, w)) {
                    c.store(&w->color, std::uint64_t(black));
                    c.store(&x_parent->color, std::uint64_t(red));
                    rotateRight(c, x_parent);
                    w = c.load(&x_parent->left);
                }
                if (!isRed(c, c.load(&w->right)) &&
                    !isRed(c, c.load(&w->left))) {
                    c.store(&w->color, std::uint64_t(red));
                    x = x_parent;
                    x_parent = c.load(&x->parent);
                } else {
                    if (!isRed(c, c.load(&w->left))) {
                        Node* w_right = c.load(&w->right);
                        if (w_right != nullptr) {
                            c.store(&w_right->color,
                                    std::uint64_t(black));
                        }
                        c.store(&w->color, std::uint64_t(red));
                        rotateLeft(c, w);
                        w = c.load(&x_parent->left);
                    }
                    c.store(&w->color, c.load(&x_parent->color));
                    c.store(&x_parent->color, std::uint64_t(black));
                    Node* w_left = c.load(&w->left);
                    if (w_left != nullptr)
                        c.store(&w_left->color, std::uint64_t(black));
                    rotateRight(c, x_parent);
                    x = c.load(&root_);
                    x_parent = nullptr;
                }
            }
        }
        if (x != nullptr)
            c.store(&x->color, std::uint64_t(black));
    }

    template <typename Ctx, typename F>
    void
    visit(Ctx& c, Node* node, F& f)
    {
        if (node == nullptr)
            return;
        visit(c, c.load(&node->left), f);
        f(c.load(&node->key), c.load(&node->value));
        visit(c, c.load(&node->right), f);
    }

    /** Recursive invariant check; -1 on violation. */
    static int
    blackHeight(const Node* node, const Node* parent,
                std::uint64_t min_key, std::uint64_t max_key)
    {
        if (node == nullptr)
            return 0;
        if (node->parent != parent)
            return -1;
        if (node->key < min_key || node->key > max_key)
            return -1;
        if (node->color == red && parent != nullptr &&
            parent->color == red) {
            return -1;
        }
        const int left_height =
            node->key == 0
                ? blackHeight(node->left, node, min_key, node->key)
                : blackHeight(node->left, node, min_key, node->key - 1);
        const int right_height =
            blackHeight(node->right, node, node->key + 1, max_key);
        if (left_height < 0 || right_height < 0 ||
            left_height != right_height) {
            return -1;
        }
        return left_height + (node->color == black ? 1 : 0);
    }

    static void
    freeSubtree(Node* node)
    {
        if (node == nullptr)
            return;
        freeSubtree(node->left);
        freeSubtree(node->right);
        sim::regionFree(node, sizeof(Node));
    }

    Node* root_ = nullptr;
    std::uint64_t size_ = 0;
};

} // namespace htmsim::tmds

#endif // HTMSIM_TMDS_TM_RBTREE_HH
